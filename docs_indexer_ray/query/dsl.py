"""OpenSearch JSON query DSL → the engine's query AST.

The reference's real clients don't type the ``query_string``
mini-language — they POST ``/_search`` bodies like::

    {"query": {"bool": {
        "must": [{"match": {"body": "node pools"}}],
        "must_not": [{"term": {"body": "quota"}}],
        "should": [{"match_phrase": {"body": {"query": "node pools",
                                               "slop": 1}}}]}},
     "size": 5, "from": 0, "highlight": {"fields": {"body": {}}}}

This module lowers that JSON shape onto the SAME AST nodes the
``query_string`` parser produces (``_Term``/``_Phrase``/``_Fuzzy``/
``_Wildcard``/``_Bool`` — ``query/qstring.py``), so the entire
existing evaluation stack — dense ``_eval``, the range-limited
sharded ``_eval_range``, facet match masks, highlight's
``positive_terms``, pagination — serves DSL queries with ZERO new
distributed code: ``parse_query_string`` accepts a dict and delegates
here, and a dict rides to the shard actors exactly like a string.

Supported clauses (one key per query object, like OpenSearch):

* ``match`` — analyzed full-text; ``operator`` "or" (default) / "and",
  optional ``fuzziness`` (every analyzed token becomes a fuzzy term),
  ``boost``.
* ``match_phrase`` — analyzed positional phrase, optional ``slop``.
* ``term`` / ``terms`` — NOT analyzed (OpenSearch keyword semantics);
  lowercased to meet the index's lowercase token space.
* ``fuzzy`` — single token, ``fuzziness`` int or "AUTO".
* ``wildcard`` / ``prefix`` — ``*``/``?`` pattern (prefix appends *).
* ``regexp`` — anchored regex over the term dictionary
  (trigram-accelerated expansion), constant score like wildcard.
* ``range`` — ``{field: {gte|gt|lte|lt: v}}`` over a STORED
  docs-store column (date / numeric / string; ISO-8601 strings for
  timestamp columns) — lowers to a ``_Range`` leaf evaluated via the
  memoized ``reader.stored_mask``, shard-local on the fleet; scores a
  constant ``boost`` per match (OpenSearch query-context semantics).
* ``query_string`` — the full mini-language, embedded.
* ``simple_query_string`` — the LENIENT language (never 400s;
  ``query/simpleqs.py``): ``+`` AND, ``|`` OR, ``-`` not, phrases,
  trailing-``*`` prefix, ``~N`` fuzzy/slop; malformed syntax degrades
  to literal text per Lucene's SimpleQueryParser contract.
* ``match_all`` — every live doc at constant ``boost``.
* ``ids`` — ``{"values": [doc_id, …]}`` constant-score membership.
* ``exists`` — ``{"field": col}`` non-null stored docs-store column
  (an unmapped field matches nothing, the OpenSearch semantic).
* ``constant_score`` — ``{"filter": clause, "boost": b}``: the
  filter's match set, every hit scoring exactly ``b``.
* ``dis_max`` — ``{"queries": […], "tie_breaker": t}``: per doc the
  best child plus ``t`` × the other matching children (Lucene
  DisjunctionMaxQuery).
* ``boosting`` — ``{"positive": …, "negative": …, "negative_boost":
  b}``: positive's matches/scores, multiplied by ``b`` where the
  negative also matches (never gates membership).
* ``match_bool_prefix`` — every analyzed token a term, the last a
  constant-score prefix wildcard (Lucene's multi-term rewrite).
* ``function_score`` — ONE ``exp`` recency-decay function over a
  stored timestamp column, ``boost_mode: multiply``: score ×
  ``exp(ln(decay)/scale · max(age, 0))`` (per-doc weights from the
  memoized ``stored_column`` slice, shard-exact).
* ``span_near`` / ``span_first`` / ``span_term`` — positional span
  queries: ``in_order: true`` lowers to the sloppy-phrase walk,
  ``in_order: false`` to the unordered ``phrase.span_near`` window
  (constant-score, the multi-term-rewrite convention — documented
  divergence from Lucene's sloppy-freq span scoring); a standalone
  ``span_term`` scores like ``term``.
* ``more_like_this`` — ONE ``like`` doc id: the MLT term selection
  (top tf·idf terms of the stored source) expands at evaluation time
  into should-of-terms with the source excluded — global statistics
  keep the expansion identical on every shard.
* ``match_phrase_prefix`` — phrase whose last token expands against
  the term dictionary (dictionary order, ``max_expansions`` cap, 50
  default); each completion scores as its own phrase pseudo-term and
  a doc sums over the completions it contains (documented divergence
  from Lucene's pooled MultiPhraseQuery frequency).
* ``bool`` — ``must`` / ``should`` / ``must_not`` / ``filter``; each a
  clause or list of clauses.  ``filter`` lowers to ``must``: this
  engine has no constant-score path for filter context, so filter
  clauses participate in scoring like must (documented divergence;
  ranks are this engine's own contract anyway — the SQL oracles pin
  them).  For true constant-score filtering wrap the clause in
  ``constant_score``.

Field names on TEXT clauses are accepted and IGNORED: a build indexes
ONE primary field (multi-field search is the ``multi_match``/chain
machinery, ``query/multimatch.py``).  This mirrors querying the
catch-all ``text`` field the reference's UI actually hits.  ``range``
is the exception — it targets a stored docs-store column by name.
"""

from __future__ import annotations

__all__ = ["dsl_to_node", "DslError"]


class DslError(ValueError):
    """Malformed / unsupported query-DSL input."""


def _interval_seconds(s) -> int:
    """Fixed-width interval spec → seconds: ``3600``, ``"90s"``,
    ``"30m"``, ``"1h"``, ``"1d"``, ``"1w"``, or the calendar names
    second/minute/hour/day/week.  month/quarter/year are NOT
    fixed-width — refused here; callers that support OpenSearch
    ``calendar_interval`` (the serving agg compiler) route those
    units to the civil date_trunc path (``facets._calendar_trunc_us``)
    BEFORE calling this."""
    import re as _re

    if isinstance(s, (int, float)):
        iv = int(s)
    else:
        s = str(s)
        names = {"second": 1, "minute": 60, "hour": 3600,
                 "day": 86400, "week": 604800}
        if s in names:
            iv = names[s]
        else:
            m = _re.fullmatch(r"(\d+)([smhdw])", s)
            if not m:
                raise ValueError(
                    f"unsupported interval {s!r} — fixed-width only "
                    "(month/year are calendar-variable)"
                )
            units = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}
            iv = int(m.group(1)) * units[m.group(2)]
    # a zero width would put every doc in bucket 0 with a 200 (numpy
    # int64 `// 0` yields 0 under a RuntimeWarning) — refuse it here so
    # the REST layer 400s
    if iv <= 0:
        raise ValueError(f"interval must be > 0, got {s!r}")
    return iv


_LEAF_KEYS = (
    "match", "match_phrase", "term", "terms", "fuzzy", "wildcard",
    "prefix", "range", "query_string", "bool", "match_all", "ids",
    "exists", "constant_score", "dis_max", "boosting",
    "match_bool_prefix", "match_phrase_prefix", "regexp",
    "simple_query_string", "function_score", "span_near", "span_first",
    "span_term", "span_or", "intervals", "more_like_this", "knn",
    "terms_set", "rank_feature", "distance_feature",
)

_RANGE_OPS = {"gte": ">=", "gt": ">", "lte": "<=", "lt": "<"}


def _one_field(clause: dict, kind: str) -> tuple[str, object]:
    if not isinstance(clause, dict) or len(clause) != 1:
        raise DslError(f"{kind} expects exactly one field: {clause!r}")
    return next(iter(clause.items()))


def _opts(body: object, value_key: str) -> tuple[str, dict]:
    """Normalize ``field: "x"`` vs ``field: {value_key: "x", …opts}``."""
    if isinstance(body, dict):
        if value_key not in body:
            raise DslError(f"missing {value_key!r} in {body!r}")
        return str(body[value_key]), {k: v for k, v in body.items()
                                      if k != value_key}
    return str(body), {}


def _fuzz_edits(fuzziness) -> int | None:
    """OpenSearch ``fuzziness``: int, numeric string, or "AUTO"."""
    if fuzziness is None or str(fuzziness).upper() == "AUTO":
        return None
    return int(fuzziness)


def dsl_to_node(obj: dict, analyzer, default_operator: str = "or"):
    """One DSL query object → an AST node (or None for a clause that
    analyzes to nothing, mirroring the string parser's behavior).

    TOTAL over JSON-shaped input: any body either lowers, returns
    None, or raises :class:`DslError` / ``QueryStringError`` — the
    HTTP layer's 400 contract (hypothesis-fuzzed).  The lowering core
    coerces clause values with ``int()``/``float()``/``.lower()``
    etc.; a list/dict/None where a scalar belongs surfaces as
    TypeError/AttributeError from those, and a pathologically nested
    body as RecursionError — all converted HERE, at the single public
    entry, so no malformed body can escape as a 500."""
    from .qstring import QueryStringError

    try:
        return _dsl_node(obj, analyzer, default_operator)
    except (DslError, QueryStringError):
        raise
    except RecursionError:
        raise DslError("query DSL nested too deeply") from None
    except (TypeError, AttributeError, OverflowError, ValueError) as e:
        raise DslError(f"malformed clause value: {e}") from None


def _dsl_node(obj: dict, analyzer, default_operator: str = "or"):
    from .qstring import (
        _Bool,
        _Fuzzy,
        _Phrase,
        _Term,
        _Wildcard,
        parse_query_string,
    )

    if not isinstance(obj, dict) or len(obj) != 1:
        raise DslError(
            f"a query object needs exactly one of {_LEAF_KEYS}: {obj!r}"
        )
    kind, clause = next(iter(obj.items()))

    if kind in (
        "bool", "match_all", "ids", "exists", "constant_score",
        "dis_max", "boosting", "function_score", "span_near",
        "span_first", "span_or", "more_like_this", "query_string",
        "simple_query_string", "rank_feature", "distance_feature",
    ) and not isinstance(clause, dict):
        # object-bodied clauses: a null / scalar / list body is a 400,
        # never an AttributeError 500 (hypothesis-fuzzed)
        raise DslError(f"{kind} expects an object body: {clause!r}")

    if kind == "bool":
        node = _Bool(boost=float(clause.get("boost", 1.0)))
        buckets = (("must", node.must), ("filter", node.must),
                   ("should", node.should), ("must_not", node.must_not))
        known = {k for k, _ in buckets} | {"boost"}
        for key in clause:
            if key not in known:
                raise DslError(f"unsupported bool key {key!r}")
        for key, bucket in buckets:
            sub = clause.get(key, [])
            for c in sub if isinstance(sub, list) else [sub]:
                child = _dsl_node(c, analyzer, default_operator)
                if child is not None:
                    bucket.append(child)
        if not (node.must or node.should or node.must_not):
            return None
        return node

    if kind == "query_string":
        if not isinstance(clause, dict) or "query" not in clause:
            raise DslError(f"query_string expects {{'query': …}}: {clause!r}")
        return parse_query_string(
            clause["query"], analyzer,
            clause.get("default_operator", default_operator).lower(),
        )

    if kind == "simple_query_string":
        from .simpleqs import parse_simple_query_string

        if not isinstance(clause, dict) or "query" not in clause:
            raise DslError(
                f"simple_query_string expects {{'query': …}}: {clause!r}"
            )
        # the LENIENT language: malformed syntax degrades to literal
        # text instead of erroring (Lucene SimpleQueryParser); a query
        # that reduces to nothing vanishes like a stopword match
        return parse_simple_query_string(
            str(clause["query"]), analyzer,
            str(clause.get("default_operator", default_operator)).lower(),
        )

    if kind == "function_score":
        from .qstring import _FuncScore

        if not isinstance(clause, dict) or "query" not in clause:
            raise DslError(
                f"function_score expects {{'query': …}}: {clause!r}"
            )
        child = _dsl_node(clause["query"], analyzer, default_operator)
        if child is None:
            return None
        fns = clause.get("functions", [])
        # accept the single-function shorthand {"exp": {...}} too
        if not fns and "exp" in clause:
            fns = [{"exp": clause["exp"]}]
        if len(fns) != 1 or "exp" not in fns[0]:
            raise DslError(
                "function_score supports exactly ONE exp decay function"
            )
        mode = str(clause.get("boost_mode", "multiply")).lower()
        if mode != "multiply":
            raise DslError(f"boost_mode must be 'multiply': {mode!r}")
        field, spec = _one_field(fns[0]["exp"], "exp")
        if not isinstance(spec, dict) or "origin" not in spec \
                or "scale" not in spec:
            raise DslError(f"exp decay needs origin + scale: {spec!r}")
        return _FuncScore(
            child,
            field,
            str(spec["origin"]),
            float(_interval_seconds(spec["scale"])),
            decay=float(spec.get("decay", 0.5)),
            boost=float(clause.get("boost", 1.0)),
        )

    if kind == "rank_feature":
        from .qstring import _RankFeature

        # {"rank_feature": {"field": col, "saturation"|"log"|"sigmoid":
        #   {…}, "boost": b}} — positive stored-column boosting.
        # Divergence, documented on the node: OpenSearch derives a
        # default saturation pivot from index statistics; here pivot /
        # scaling_factor / exponent are required explicitly so every
        # shard scores identically without a stats round.
        field = clause.get("field")
        if not isinstance(field, str) or not field:
            raise DslError(f"rank_feature needs a field: {clause!r}")
        fns = [f for f in ("saturation", "log", "sigmoid") if f in clause]
        if len(fns) > 1:
            raise DslError(
                f"rank_feature takes ONE function, got {fns}: {clause!r}"
            )
        fn = fns[0] if fns else "saturation"
        opts = clause.get(fn, {})
        if not isinstance(opts, dict):
            raise DslError(f"{fn} expects an object: {opts!r}")
        kw = {}
        try:
            if fn == "saturation":
                kw["pivot"] = float(opts["pivot"])
            elif fn == "log":
                kw["scaling_factor"] = float(opts["scaling_factor"])
            else:
                kw["pivot"] = float(opts["pivot"])
                kw["exponent"] = float(opts["exponent"])
        except KeyError as e:
            raise DslError(
                f"rank_feature {fn} needs explicit {e.args[0]!r} "
                "(no index-statistics default in this engine)"
            ) from None
        # Lucene's FeatureField rejects these at query build time —
        # serving them would produce inf / negative / NaN scores on
        # matching docs (pivot = x divides by zero; ln(sf + x) < 0;
        # json.loads happily hands us NaN/Infinity literals)
        import math as _math

        if any(not _math.isfinite(v) for v in kw.values()):
            raise DslError(f"rank_feature {fn} params must be finite")
        if kw.get("pivot", 1.0) <= 0 or kw.get("exponent", 1.0) <= 0:
            raise DslError(f"rank_feature {fn} needs pivot/exponent > 0")
        if kw.get("scaling_factor", 1.0) < 1.0:
            raise DslError(f"rank_feature log needs scaling_factor >= 1")
        return _RankFeature(
            field, fn, boost=float(clause.get("boost", 1.0)), **kw
        )

    if kind == "distance_feature":
        from .qstring import _DistanceFeature

        # {"distance_feature": {"field", "origin", "pivot", "boost"}}
        # — date/numeric proximity boost.  Timestamp columns take an
        # ISO-8601 origin + duration pivot ("7d"); numerics take
        # plain numbers.  Geo origins (lists / lat-lon) are refused —
        # no geo mapping in this engine.
        field = clause.get("field")
        if not isinstance(field, str) or not field:
            raise DslError(f"distance_feature needs a field: {clause!r}")
        if "origin" not in clause or "pivot" not in clause:
            raise DslError(
                f"distance_feature needs origin + pivot: {clause!r}"
            )
        origin, pivot = clause["origin"], clause["pivot"]
        if isinstance(origin, str):
            import datetime as _dt

            try:
                o = _dt.datetime.fromisoformat(origin)
            except ValueError:
                raise DslError(
                    f"distance_feature origin must be a number or "
                    f"ISO-8601 timestamp: {origin!r}"
                ) from None
            if o.tzinfo is not None:
                o = o.astimezone(_dt.timezone.utc).replace(tzinfo=None)
            origin_v = (o - _dt.datetime(1970, 1, 1)).total_seconds() * 1e6
            pivot_v = float(_interval_seconds(pivot)) * 1e6
        elif isinstance(origin, (int, float)) and not isinstance(origin, bool):
            origin_v = float(origin)
            if not isinstance(pivot, (int, float)) or isinstance(pivot, bool):
                raise DslError(
                    f"numeric origin needs a numeric pivot: {pivot!r}"
                )
            pivot_v = float(pivot)
        else:
            raise DslError(
                f"unsupported distance_feature origin {origin!r} "
                "(geo origins are not supported — no geo mapping)"
            )
        import math as _math

        if not (_math.isfinite(origin_v) and _math.isfinite(pivot_v)):
            # json.loads accepts NaN/Infinity — they'd turn every
            # matching doc's score into NaN/inf and poison the ranking
            raise DslError(
                f"distance_feature origin/pivot must be finite: "
                f"{origin!r}, {pivot!r}"
            )
        if not pivot_v > 0:
            raise DslError(f"distance_feature pivot must be > 0: {pivot!r}")
        return _DistanceFeature(
            field, origin_v, pivot_v, boost=float(clause.get("boost", 1.0))
        )

    if kind == "span_or":
        # Lucene SpanOrQuery: union of span clauses.  Lowers to a
        # bool-should over the recursively lowered children — the
        # MATCH SET is exactly the span union; scoring divergence,
        # documented: a doc matching several children sums their
        # scores where Lucene pools span frequency (ranks agree
        # except on multi-child docs, the same convention as the
        # engine's other multi-term rewrites).
        if not isinstance(clause, dict) or not isinstance(
            clause.get("clauses"), list
        ) or not clause["clauses"]:
            raise DslError(f"span_or expects clauses: {clause!r}")
        kids = []
        for c in clause["clauses"]:
            if not (isinstance(c, dict) and len(c) == 1 and next(
                iter(c)
            ) in ("span_term", "span_near", "span_first", "span_or")):
                raise DslError(f"span_or expects span clauses: {c!r}")
            child = _dsl_node(c, analyzer, default_operator)
            if child is not None:
                kids.append(child)
        if not kids:
            return None
        if len(kids) == 1:
            # single-child collapse keeps the clause boost
            kids[0].boost = kids[0].boost * float(clause.get("boost", 1.0))
            return kids[0]
        return _Bool(should=kids, boost=float(clause.get("boost", 1.0)))

    if kind in ("span_near", "span_first", "span_term"):
        from .qstring import _SpanFirst, _SpanNear

        def _span_word(c) -> str:
            if not (isinstance(c, dict) and len(c) == 1
                    and "span_term" in c):
                raise DslError(f"expected a span_term clause: {c!r}")
            _, v = _one_field(c["span_term"], "span_term")
            word, _ignored = _opts(v, "value")
            return word.lower()

        if kind == "span_term":
            # standalone span_term scores like a term query (Lucene)
            v, opts = _opts(_one_field(clause, kind)[1], "value")
            return _Term(v.lower(), boost=float(opts.get("boost", 1.0)))
        if kind == "span_first":
            if not isinstance(clause, dict) or "match" not in clause \
                    or "end" not in clause:
                raise DslError(
                    f"span_first expects match + end: {clause!r}"
                )
            return _SpanFirst(
                _span_word(clause["match"]), int(clause["end"]),
                boost=float(clause.get("boost", 1.0)),
            )
        # span_near
        if not isinstance(clause, dict) or not isinstance(
            clause.get("clauses"), list
        ) or not clause["clauses"]:
            raise DslError(f"span_near expects clauses: {clause!r}")
        words = [_span_word(c) for c in clause["clauses"]]
        slop = int(clause.get("slop", 0))
        boost = float(clause.get("boost", 1.0))
        if len(words) == 1:
            return _Term(words[0], boost=boost)
        if bool(clause.get("in_order", True)):
            # ordered spans = the sloppy-phrase walk
            return _Phrase(words, slop=slop, boost=boost)
        return _SpanNear(words, slop=slop, boost=boost)

    if kind == "intervals":
        # Lucene's intervals query — the modern positional API.  The
        # engine's positional kernels implement the two core rules, so
        # PLAIN intervals LOWER instead of adding a new evaluator:
        #   match(ordered)   → the sloppy-phrase walk (slop = max_gaps)
        #   match(unordered) → the unordered span_near window
        #   any_of           → bool-should over the lowered sources
        # Scoring follows the lowered node's convention (sloppy-phrase
        # BM25 for ordered, constant-score for unordered — the span
        # family's documented divergence).  ``all_of`` nesting and the
        # interval ``filter`` rules need real extent enumeration — they
        # lower to ``_IntervalsExpr`` over the minimal-interval algebra
        # in ``query/extents.py`` (constant-score; round 5 closed this
        # last refused corner).  ``script`` filters stay refused.
        from .extents import (
            _RELATIONS,
            _NEGATIVE_RELATIONS,
            ExtAllOf,
            ExtAnyOf,
            ExtFilter,
            ExtMatch,
            ExtTerm,
        )
        from .qstring import _IntervalsExpr, _Phrase, _SpanNear

        field, body = _one_field(clause, kind)

        def _needs_extents(rule) -> bool:
            if not isinstance(rule, dict):
                return False
            for k, v in rule.items():
                if k == "all_of" or k == "filter":
                    return True
                if isinstance(v, dict) and _needs_extents(v):
                    return True
                if isinstance(v, list) and any(
                    isinstance(x, dict) and _needs_extents(x) for x in v
                ):
                    return True
            return False

        def _match_terms(spec):
            if not isinstance(spec, dict) or "query" not in spec:
                raise DslError(f"intervals match needs query: {spec!r}")
            terms = analyzer(str(spec["query"]))
            gaps = int(spec.get("max_gaps", -1))
            ordered = bool(spec.get("ordered", False))
            if not ordered and len(set(terms)) != len(terms):
                # the unordered kernels match DISTINCT terms; Lucene's
                # unordered source requires one occurrence per repeat —
                # refuse loudly rather than silently matching
                # single-occurrence docs
                raise DslError(
                    "unordered intervals with repeated tokens are "
                    f"not supported: {terms!r} (use ordered: true)"
                )
            return terms, ordered, gaps

        # sentinel: a rule that can NEVER produce an interval.  Lucene
        # semantics, applied UNIFORMLY (fourth review pass): an
        # intervals source whose text analyzes to no tokens matches
        # NOTHING — in a union it contributes nothing, in a
        # conjunction it kills the conjunction, at the top it lowers
        # to a match-nothing node (returning None there would make
        # the bool plumbing DROP the clause and silently widen the
        # query, and a mixed any_of convention would break union
        # monotonicity).
        _NEVER = object()

        def _build_ext(rule):
            """Rule dict → extent AST or _NEVER."""
            if not isinstance(rule, dict) or len(rule) != 1:
                raise DslError(f"intervals expects one rule: {rule!r}")
            rkind, spec = next(iter(rule.items()))
            if rkind == "match":
                terms, ordered, gaps = _match_terms(spec)
                if not terms:
                    return _wrap_filter(_NEVER, spec)
                node = (
                    ExtTerm(terms[0])
                    if len(terms) == 1
                    else ExtMatch(terms, ordered=ordered, max_gaps=gaps)
                )
                return _wrap_filter(node, spec)
            if rkind == "any_of":
                subs = spec.get("intervals") if isinstance(spec, dict) \
                    else None
                if not isinstance(subs, list) or not subs:
                    raise DslError(
                        f"any_of expects {{'intervals': […]}}: {spec!r}"
                    )
                kids = [x for x in (_build_ext(s) for s in subs)
                        if x is not _NEVER]
                if not kids:
                    # union of never-matching alternatives — never
                    return _wrap_filter(_NEVER, spec)
                node = kids[0] if len(kids) == 1 else ExtAnyOf(kids)
                return _wrap_filter(node, spec)
            if rkind == "all_of":
                subs = spec.get("intervals") if isinstance(spec, dict) \
                    else None
                if not isinstance(subs, list) or not subs:
                    raise DslError(
                        f"all_of expects {{'intervals': […]}}: {spec!r}"
                    )
                kids = [_build_ext(s) for s in subs]
                if any(k is _NEVER for k in kids):
                    # an empty-analysis sub can never contribute an
                    # interval — the conjunction matches NOTHING
                    return _wrap_filter(_NEVER, spec)
                node = ExtAllOf(
                    kids,
                    ordered=bool(spec.get("ordered", False)),
                    max_gaps=int(spec.get("max_gaps", -1)),
                )
                return _wrap_filter(node, spec)
            raise DslError(
                f"unsupported intervals rule {rkind!r} "
                "(supported: match, any_of, all_of)"
            )

        def _wrap_filter(node, spec):
            """Validate + apply a rule's filter spec.  Validation runs
            even for a _NEVER source (a malformed filter must 400
            regardless of whether a sibling field stopword-analyzed —
            fourth review pass)."""
            if not isinstance(spec, dict) or "filter" not in spec:
                return node
            f = spec["filter"]
            if not isinstance(f, dict) or len(f) != 1:
                raise DslError(
                    f"intervals filter expects one relation: {f!r}"
                )
            rel, frule = next(iter(f.items()))
            if rel == "script":
                raise DslError(
                    "intervals script filters are not supported "
                    "(no scripting engine)"
                )
            if rel not in _RELATIONS:
                raise DslError(
                    f"unsupported intervals filter relation {rel!r} "
                    f"— one of {sorted(_RELATIONS)}"
                )
            fnode = _build_ext(frule)
            if node is _NEVER:
                return _NEVER
            if fnode is _NEVER:
                # no filter intervals can ever exist: negative
                # relations are vacuously satisfied; positive ones
                # can never be → the source matches NOTHING
                return node if rel in _NEGATIVE_RELATIONS else _NEVER
            return ExtFilter(node, rel, fnode)

        def _lower_rule(rule):
            if not isinstance(rule, dict) or len(rule) != 1:
                raise DslError(f"intervals expects one rule: {rule!r}")
            rkind, spec = next(iter(rule.items()))
            if rkind == "match":
                terms, ordered, gaps = _match_terms(spec)
                if not terms:
                    return None
                # Lucene: max_gaps=0 → adjacent-only; −1 (the default)
                # → NO width restriction — any co-occurrence in order
                slop = gaps if gaps >= 0 else (1 << 30)
                if len(terms) == 1:
                    return _Term(terms[0])
                if ordered:
                    return _Phrase(terms, slop=slop)
                return _SpanNear(terms, slop=slop)
            if rkind == "any_of":
                subs = spec.get("intervals") if isinstance(spec, dict) \
                    else None
                if not isinstance(subs, list) or not subs:
                    raise DslError(
                        f"any_of expects {{'intervals': […]}}: {spec!r}"
                    )
                kids = [x for x in (_lower_rule(s) for s in subs)
                        if x is not None]
                if not kids:
                    return None
                return kids[0] if len(kids) == 1 else _Bool(should=kids)
            raise DslError(
                f"unsupported intervals rule {rkind!r} "
                "(supported: match, any_of, all_of)"
            )

        rule_body = (
            {k: v for k, v in body.items() if k != "boost"}
            if isinstance(body, dict)
            else body
        )
        if _needs_extents(rule_body):
            ext = _build_ext(rule_body)
            if ext is _NEVER:
                # MATCH NOTHING (an empty _Bool evaluates to the empty
                # match set) — NOT None, which would drop the clause
                # from an enclosing bool and widen the query
                return _Bool()
            node = _IntervalsExpr(ext)
        else:
            node = _lower_rule(rule_body)
        if node is None:
            # fast-path empty analysis: same Lucene matches-NOTHING
            # semantics as the extents path
            return _Bool()
        boost = float(body.get("boost", 1.0)) if isinstance(body, dict) \
            else 1.0
        if boost != 1.0:
            node.boost = boost
        return node

    if kind == "more_like_this":
        from .qstring import _MoreLikeThis

        if not isinstance(clause, dict):
            raise DslError(f"more_like_this expects an object: {clause!r}")
        like = clause.get("like")
        if isinstance(like, list):
            if len(like) != 1:
                raise DslError(
                    "more_like_this supports exactly ONE like document"
                )
            like = like[0]
        if isinstance(like, dict) and "_id" in like:
            like = like["_id"]
        # ASCII digits only: isdigit() admits '²' which int() rejects,
        # turning the DslError 400 contract into a raw ValueError
        if not isinstance(like, (int, str)) or (
            isinstance(like, str)
            and not (like.isascii() and like.isdigit())
        ):
            raise DslError(
                f"more_like_this 'like' must be a doc id: {clause!r}"
            )
        return _MoreLikeThis(
            int(like),
            max_query_terms=int(clause.get("max_query_terms", 25)),
            boost=float(clause.get("boost", 1.0)),
        )

    if kind == "match_all":
        from .qstring import _MatchAll

        if not isinstance(clause, dict) or set(clause) - {"boost"}:
            raise DslError(f"match_all takes only boost: {clause!r}")
        return _MatchAll(boost=float(clause.get("boost", 1.0)))

    if kind == "ids":
        from .qstring import _Ids

        if not isinstance(clause, dict) or not isinstance(
            clause.get("values"), list
        ):
            raise DslError(f"ids expects {{'values': […]}}: {clause!r}")
        return _Ids(
            [int(v) for v in clause["values"]],
            boost=float(clause.get("boost", 1.0)),
        )

    if kind == "exists":
        from .qstring import _Range

        if not isinstance(clause, dict) or "field" not in clause:
            raise DslError(f"exists expects {{'field': …}}: {clause!r}")
        # exists is a stored-field predicate like range: non-null in
        # the docs store; an unmapped field matches nothing
        return _Range(
            str(clause["field"]), [("exists", None)],
            boost=float(clause.get("boost", 1.0)),
        )

    if kind == "constant_score":
        from .qstring import _ConstScore

        if not isinstance(clause, dict) or "filter" not in clause:
            raise DslError(
                f"constant_score expects {{'filter': …}}: {clause!r}"
            )
        child = _dsl_node(clause["filter"], analyzer, default_operator)
        if child is None:
            return None
        return _ConstScore(child, boost=float(clause.get("boost", 1.0)))

    if kind == "dis_max":
        from .qstring import _DisMax

        if not isinstance(clause, dict) or not isinstance(
            clause.get("queries"), list
        ):
            raise DslError(f"dis_max expects {{'queries': […]}}: {clause!r}")
        children = [
            c
            for q in clause["queries"]
            if (c := _dsl_node(q, analyzer, default_operator)) is not None
        ]
        if not children:
            return None
        return _DisMax(
            children,
            tie_breaker=float(clause.get("tie_breaker", 0.0)),
            boost=float(clause.get("boost", 1.0)),
        )

    if kind == "boosting":
        from .qstring import _Boosting

        if not isinstance(clause, dict) or "positive" not in clause \
                or "negative" not in clause:
            raise DslError(
                f"boosting expects positive + negative: {clause!r}"
            )
        pos = _dsl_node(clause["positive"], analyzer, default_operator)
        if pos is None:
            return None
        neg = _dsl_node(clause["negative"], analyzer, default_operator)
        if neg is None:  # nothing to demote — the positive stands alone
            return pos
        return _Boosting(
            pos, neg,
            negative_boost=float(clause.get("negative_boost", 0.5)),
            boost=float(clause.get("boost", 1.0)),
        )

    field, body = _one_field(clause, kind)

    if kind == "match_bool_prefix":
        text, opts = _opts(body, "query")
        terms = analyzer(text)
        if not terms:
            return None
        # every token a term except the LAST, which is a prefix — the
        # constant-score wildcard leaf (Lucene's multi-term rewrite)
        leaves = [_Term(t) for t in terms[:-1]]
        leaves.append(_Wildcard(terms[-1] + "*"))
        boost = float(opts.get("boost", 1.0))
        if len(leaves) == 1:
            leaves[0].boost = boost
            return leaves[0]
        op = str(opts.get("operator", "or")).lower()
        if op == "and":
            return _Bool(must=leaves, boost=boost)
        return _Bool(should=leaves, boost=boost)

    if kind == "match_phrase_prefix":
        from .qstring import _PhrasePrefix

        text, opts = _opts(body, "query")
        terms = analyzer(text)
        if not terms:
            return None
        return _PhrasePrefix(
            terms,
            max_expansions=int(opts.get("max_expansions", 50)),
            boost=float(opts.get("boost", 1.0)),
        )

    if kind == "match":
        text, opts = _opts(body, "query")
        terms = analyzer(text)
        if not terms:
            return None
        edits = _fuzz_edits(opts["fuzziness"]) if "fuzziness" in opts else False
        leaves = [
            _Fuzzy(t, edits) if edits is not False else _Term(t)
            for t in terms
        ]
        boost = float(opts.get("boost", 1.0))
        if len(leaves) == 1:
            leaves[0].boost = boost
            return leaves[0]
        op = str(opts.get("operator", "or")).lower()
        if op == "and":
            return _Bool(must=leaves, boost=boost)
        return _Bool(should=leaves, boost=boost)

    if kind == "match_phrase":
        text, opts = _opts(body, "query")
        terms = analyzer(text)
        if not terms:
            return None
        boost = float(opts.get("boost", 1.0))
        if len(terms) == 1:
            return _Term(terms[0], boost=boost)
        return _Phrase(terms, slop=int(opts.get("slop", 0)), boost=boost)

    if kind == "term":
        value, opts = _opts(body, "value")
        return _Term(value.lower(), boost=float(opts.get("boost", 1.0)))

    if kind == "terms":
        if not isinstance(body, list):
            raise DslError(f"terms expects a value list: {body!r}")
        leaves = [_Term(str(v).lower()) for v in body]
        if not leaves:
            return None
        return _Bool(should=leaves) if len(leaves) > 1 else leaves[0]

    if kind == "fuzzy":
        value, opts = _opts(body, "value")
        return _Fuzzy(
            value.lower(),
            _fuzz_edits(opts.get("fuzziness")),
            boost=float(opts.get("boost", 1.0)),
        )

    if kind == "range":
        from .qstring import _Range

        if not isinstance(body, dict):
            raise DslError(f"range expects {{gte|gt|lte|lt: …}}: {body!r}")
        bounds = [
            (_RANGE_OPS[k], v) for k, v in body.items() if k in _RANGE_OPS
        ]
        unknown = set(body) - set(_RANGE_OPS) - {"boost"}
        if unknown or not bounds:
            raise DslError(
                f"range bounds must be gte/gt/lte/lt (got {sorted(body)})"
            )
        # range targets a STORED field (docs-store column) — the one
        # DSL clause where the field name is meaningful, not ignored
        return _Range(field, bounds, boost=float(body.get("boost", 1.0)))

    if kind in ("wildcard", "prefix"):
        value, opts = _opts(body, "value")
        pat = value.lower() + ("*" if kind == "prefix" else "")
        return _Wildcard(pat, boost=float(opts.get("boost", 1.0)))

    if kind == "regexp":
        from .qstring import _Regexp

        value, opts = _opts(body, "value")
        return _Regexp(value.lower(), boost=float(opts.get("boost", 1.0)))

    if kind == "knn":
        from .qstring import _Knn

        # {"knn": {<sidecar name>: {"vector": [...], "k": …}}} — the
        # OpenSearch k-NN plugin clause.  The field names the build's
        # vector SIDECAR (index/vectors.py; default attach name "emb").
        # "k" is accepted and ignored: result size is the request's
        # size/k like every other clause (documented divergence — the
        # plugin's per-segment candidate k is an ANN artifact; this
        # serving baseline scores the range exactly).
        if not isinstance(body, dict) or not isinstance(
            body.get("vector"), list
        ) or not body["vector"]:
            raise DslError(f"knn expects {{'vector': […]}}: {body!r}")
        node = _Knn(
            str(field),
            [float(x) for x in body["vector"]],
            boost=float(body.get("boost", 1.0)),
        )
        if "filter" in body:
            # the k-NN plugin's filtered search: restrict candidates to
            # the filter's match set.  The filter is NON-SCORING by the
            # plugin's contract, so it rides as a zero-boost
            # constant-score must leg: the match mask intersects, the
            # score stays exactly boost×(1+cos)/2.  This serving tier
            # scores the whole range exactly, so filtered results ARE
            # the unfiltered ranking ∩ the filter's match set (no ANN
            # candidate-list subtlety to lose recall over).
            if not isinstance(body["filter"], dict):
                raise DslError(f"knn filter must be a DSL object: "
                               f"{body['filter']!r}")
            flt = _dsl_node(body["filter"], analyzer, default_operator)
            if flt is not None:
                from .qstring import _ConstScore

                return _Bool(must=[node, _ConstScore(flt, boost=0.0)])
        return node

    if kind == "terms_set":
        from .qstring import _TermsSet

        # {"terms_set": {field: {"terms": [...],
        #   "minimum_should_match_field": <stored numeric column>
        #   | "minimum_should_match": N}}} — Lucene's CoveringQuery:
        # the required number of matching terms is per DOCUMENT.
        # Term-level like `terms`: values are lowercased, not analyzed.
        # minimum_should_match_script is not supported (no scripting
        # engine) — refused loudly.
        if not isinstance(body, dict) or not isinstance(
            body.get("terms"), list
        ) or not body["terms"]:
            raise DslError(f"terms_set expects {{'terms': […]}}: {body!r}")
        if "minimum_should_match_script" in body:
            raise DslError(
                "terms_set minimum_should_match_script is not supported "
                "(no scripting engine) — use minimum_should_match_field"
            )
        msm_field = body.get("minimum_should_match_field")
        msm_const = body.get("minimum_should_match")
        if (msm_field is None) == (msm_const is None):
            raise DslError(
                "terms_set needs exactly one of minimum_should_match_field"
                f" / minimum_should_match: {body!r}"
            )
        return _TermsSet(
            [str(v).lower() for v in body["terms"]],
            msm_field=None if msm_field is None else str(msm_field),
            msm_const=None if msm_const is None else int(msm_const),
            boost=float(body.get("boost", 1.0)),
        )

    raise DslError(f"unsupported query clause {kind!r} "
                   f"(supported: {', '.join(_LEAF_KEYS)})")
