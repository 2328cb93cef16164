"""REST serving layer — the engine's OpenSearch-endpoint parity.

The reference's consumers never import a library: they speak HTTP to
OpenSearch (`/root/reference/hugo.py` posts and queries REST; the docs
front-end searches the same way).  This module exposes the engine's
query tiers over stdlib HTTP (`http.server.ThreadingHTTPServer` —
no web framework exists in the sandbox and none is needed: request
handling is a thin JSON shim, all work happens in the warm reader or
the Ray actor fleet behind it).

Endpoints (GET, query-string parameters):

* ``/_search?q=…&k=10&syntax=1&fields=url,title&highlight=body``
  → OpenSearch-shaped body: ``{"took": ms, "hits": {"total":
  {"value": n, "relation": "eq"}, "hits": [{"_id", "_score",
  "_source": {fields…}, "sort": [score, doc_id], "highlight":
  {field: [snippet]}}…]}}``.
  ``syntax=1`` parses ``q`` as the Lucene ``query_string`` language.
  Pagination: ``from=N&size=K`` (offset paging — ``size`` aliases
  ``k``) or ``search_after=score,doc_id`` (the previous page's last
  hit's ``sort`` values — stateless deep pagination, constant cost
  per page; mutually exclusive with ``from``).
* ``POST /_search`` — the OpenSearch JSON body interface:
  ``{"query": <query-DSL object>, "size", "from", "search_after":
  [score, doc_id], "_source": [fields…], "highlight": {"fields":
  {field: {}}}, "aggs": {name: {<kind>: …}}}``.  The DSL
  (match / match_phrase / term / terms / fuzzy / wildcard / prefix /
  query_string / bool — ``query/dsl.py``) lowers onto the
  query_string AST, so both backends serve it unchanged; aggs come
  back keyed by their agg NAME (the kinds: ``query/aggs.py``).
* ``/_count?q=…`` → ``{"count": n}`` (match-any over live docs).
* ``/_analyze?text=…`` → ``{"tokens": [{"token": t, "position": i}]}``.
* ``/_suggest?q=…&n=3`` → ``{"suggestions": [{"text", "score"}]}``.

Round-3 completions of the read surface: field ``sort`` (GET
``sort=col[:asc|desc]`` / body clause, typed ``search_after``
cursors, ``sort_key`` per hit), stateless ``scroll`` +
``POST /_search/scroll`` (the id pins the build — a write invalidates
it loudly), the FULL query DSL on POST bodies (25 clause kinds —
``query/dsl.py``), the aggregation envelope (``query/aggs.py``),
highlight ``pre_tags`` / ``post_tags``
/ ``fragment_size``, body ``suggest`` blocks, ``POST /_mget``,
``GET /_field_caps``, ``POST /_validate/query`` (never 400s on a bad
query — ``valid: false``), ``POST /_rank_eval`` (precision@k / MRR /
DCG / NDCG against graded ratings through the real backend) and
``GET /_cat/indices``.

Write endpoints (POST) complete the reference's REST lifecycle — but
batched through the engine's scale paths instead of the reference's
one-synchronous-PUT-per-document loop:

* ``POST /_bulk`` — NDJSON ``{"index": {}}`` + source pairs; ONE
  incremental update for the whole batch (seen-url filter → delta
  build → k-way merge), then the serving backend swaps onto the new
  published build.  Response mirrors OpenSearch's ``{"took",
  "errors", "items": […]}``.
* ``POST /_delete_by_query?q=…`` — tombstones every doc matching any
  analyzed query term (``index.deletes.delete_by_terms``), reload.

Writes serialize behind one lock; reads keep flowing between them.

Backends: every read goes through ONE shard protocol, a
:class:`ShardedQueryService`.  ``backend="local"`` serves it as one
in-process shard over the server's warm :class:`IndexReader`
(single-node serving — the reference's one-shard index);
``backend="sharded"`` serves it from a Ray actor fleet.  A
``_search`` is OpenSearch's query-then-fetch: ONE ``query_phase``
fan-out (each shard evaluates the query once and returns its page,
match count and every aggregation partial), then one fetch fan-out
for the page's hits; ``_count`` is the query phase alone.  One HTTP
front door scales reads with the fleet (OpenSearch's
coordinating-node role).
Errors map to ``{"error": {"type", "reason"}}`` with
400 (bad query syntax / params) or 500, mirroring OpenSearch's error
envelope.
"""

from __future__ import annotations

import json
import os
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .query import aggs
from .query.served import page_rank


class PitGone(Exception):
    """Unknown / expired / garbage-collected point-in-time id — maps
    to 404 like OpenSearch's ``search_context_missing_exception``."""


def _duration_s(val) -> float:
    """OpenSearch time value (``"30s"``/``"5m"``/``"1h"``/``"2d"`` or
    a bare number of seconds) → seconds."""
    if isinstance(val, (int, float)):
        return float(val)
    s = str(val).strip().lower()
    mult = {"s": 1, "m": 60, "h": 3600, "d": 86400}.get(s[-1:])
    try:
        return float(s[:-1]) * mult if mult else float(s)
    except ValueError:
        raise ValueError(f"bad time value: {val!r}") from None


def _jsonable(v):
    """JSON-safe hit value: datetimes (timestamp stored fields / sort
    keys) serialize as ISO-8601 — the same spelling the sort cursor
    and range clauses accept back."""
    import datetime as _dt

    if isinstance(v, (_dt.datetime, _dt.date)):
        return v.isoformat()
    return v


def _maybe_num(s: str):
    """GET-param sort cursor key: int / float if it parses, else the
    raw string (the sort kernel casts strings to the column's type —
    ISO-8601 for timestamps)."""
    for cast in (int, float):
        try:
            return cast(s)
        except ValueError:
            pass
    return s


def _normalize_sort(spec) -> str | None:
    """OpenSearch body ``sort`` → the GET param's "col[:asc|desc]".
    Accepts a string, or a list whose FIRST entry is the sort field
    (string or ``{col: order}`` / ``{col: {"order": …}}``); trailing
    ``_id``/``_doc`` tie-break entries are redundant (doc-asc is the
    engine's implicit tie-break) and ignored; multi-FIELD ladders are
    refused loudly."""
    if isinstance(spec, str):
        return None if spec == "_score" else spec
    if isinstance(spec, list):
        # drop _id/_doc tie-break entries in BOTH spellings: the bare
        # string and the canonical dict {"_id": "asc"} / {"_id":
        # {"order": …}} OpenSearch clients send
        def _is_id(e):
            if isinstance(e, dict) and len(e) == 1:
                return next(iter(e)) in ("_id", "_doc")
            return e in ("_id", "_doc")

        entries = [e for e in spec if not _is_id(e)]
        if not entries:
            return None
        if len(entries) > 1:
            raise ValueError(
                "one sort field supported (+ the implicit _id tie-break)"
            )
        e = entries[0]
        if isinstance(e, str):
            return None if e == "_score" else e
        if isinstance(e, dict) and len(e) == 1:
            col, order = next(iter(e.items()))
            if isinstance(order, dict):
                order = order.get("order", "asc")
            if col == "_score":
                return None
            return f"{col}:{order}"
    raise ValueError(f"unsupported sort spec: {spec!r}")


def _is_deleted(reader, doc_id: int) -> bool:
    """Sorted-array membership in the reader's memoized tombstone set."""
    import numpy as np

    d = reader.deleted_ids()
    if not len(d):
        return False
    pos = int(np.searchsorted(d, doc_id))
    return pos < len(d) and int(d[pos]) == doc_id

__all__ = ["SearchServer"]


class SearchServer:
    """Serve an index over HTTP.  ``start()`` binds (port 0 = ephemeral,
    the bound port is ``self.port``) and serves on a daemon thread;
    ``stop()`` shuts down and releases the fleet (if sharded)."""

    def __init__(
        self,
        index_root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str = "local",
        n_shards: int = 4,
        chain: str | None = None,
        n_replicas: int = 1,
    ):
        if backend not in ("local", "sharded"):
            raise ValueError(f"backend must be 'local'|'sharded': {backend}")
        self.index_root = index_root
        self.host, self.port = host, port
        self.backend = backend
        self.n_shards = n_shards
        self.n_replicas = n_replicas
        self.chain = chain
        self._httpd: ThreadingHTTPServer | None = None
        self._svc = None
        self._reader = None
        self._analyzer = None
        self._suggester = None
        self._tv_readers: dict = {}  # per-chain readers (termvectors)
        # point-in-time contexts: pit_id → (in-process service, pinned
        # reader, expiry).  Builds are immutable directories, so a PIT
        # is just a reader kept warm on the OLD build across writes —
        # deliberately NOT cleared by _reload (that is the feature).
        # Ids carry a per-open sequence number: two clients opening
        # PITs on the same build must NOT share one entry (a shared id
        # would let one client's keep_alive or delete clobber the
        # other's)
        self._pits: dict = {}
        self._pit_seq = 0
        # request cache (OpenSearch's shard request cache, one tier
        # up): full GET responses keyed by path+query, bounded LRU,
        # invalidated wholesale on any write (_reload); every access
        # holds _cache_lock — ThreadingHTTPServer handlers race on
        # eviction otherwise (double-pop KeyError → spurious 400)
        import threading as _threading

        self.cache_size = 256
        from collections import OrderedDict

        self._cache: "OrderedDict[str, dict]" = OrderedDict()
        self._cache_lock = _threading.Lock()
        # cache generation: bumped by _reload BEFORE the clear (both
        # under the lock) so a GET that computed against the pre-write
        # backend can never re-insert its stale response into the
        # freshly cleared cache
        self._gen = 0
        # the fleet retired by the last reload: (svc, parked_at) —
        # shut down one reload LATER (past drain_grace_s), so reads
        # that were in flight across the swap drain before their
        # actors die instead of turning into 500s
        self._parked = None
        self.drain_grace_s = 5.0
        self._revive_lock = _threading.Lock()

    # ---------------------------------------------------------- queries

    def _healed(self, fn, *args):
        """Self-healing read dispatch: a fan-out that hits a DEAD
        shard actor (node loss, OOM-kill) raises ``RayActorError`` —
        revive the fleet's dead replicas ONCE and retry the request;
        a second failure surfaces loudly (500).  Writes never take
        this path (they hold the write lock and their failure
        semantics are the caller's), and an in-process backend never
        raises it.  Concurrent handler threads serialize on the revive
        lock so a request burst against one dead shard spawns ONE
        replacement, not one per thread (the second thread's revive
        finds nothing dead and replaces 0)."""
        try:
            return fn(*args)
        except Exception as e:
            import ray.exceptions as rex

            if isinstance(e, rex.RayActorError):
                with self._revive_lock:
                    self._svc.revive()
                return fn(*args)
            raise

    def _ensure_backend(self):
        from .query.reader import IndexReader
        from .query.served import ShardedQueryService

        reader = IndexReader(self.index_root, chain=self.chain)
        svc = (
            ShardedQueryService(
                self.index_root,
                n_shards=self.n_shards,
                chain=self.chain,
                n_replicas=self.n_replicas,
            )
            if self.backend == "sharded"
            else ShardedQueryService.in_process(reader)
        )
        # swap all three together: reads snapshot them as one backend
        self._reader, self._analyzer, self._svc = (
            reader, reader.analyzer, svc
        )

    def _search_post(self, params, body: bytes) -> dict:
        """``POST /_search`` — the OpenSearch JSON body interface.
        ``query`` is a JSON query-DSL object (``query/dsl.py`` — it
        lowers onto the query_string AST, so the shard protocol serves
        it); ``size``/``from``/``search_after``/
        ``_source``/``highlight``/``aggs`` map onto the GET surface's
        parameters.  URL query params still apply as defaults.
        Aggregations come back keyed by their AGG NAME (OpenSearch
        shape), not the column name the GET shorthand uses."""
        spec = json.loads(body) if body.strip() else {}
        p = dict(params)
        if (
            isinstance(spec.get("query"), dict)
            and len(spec["query"]) == 1
            and "hybrid" in spec["query"]
        ):
            # the OpenSearch 2.x hybrid query is a COORDINATOR-level
            # construct (per-sub-query shard phases + fusion in the
            # normalization processor) — it never lowers onto one AST
            return self._hybrid_search(spec, p)
        if "query" in spec:
            p["q"] = spec["query"]  # dict → DSL (syntax path forced)
            if isinstance(p["q"], dict):
                # validate the DSL HERE, before any fleet fan-out: a
                # malformed body costs one parse, not a sharded round trip
                from .query.dsl import dsl_to_node

                dsl_to_node(p["q"], self._analyzer)
        if "size" in spec:
            p["size"] = str(int(spec["size"]))
        if "from" in spec:
            p["from"] = str(int(spec["from"]))
        if "scroll" in spec:
            p["scroll"] = str(spec["scroll"])
        if "pit" in spec:
            pit = spec["pit"]
            if not isinstance(pit, dict) or "id" not in pit:
                raise ValueError(f"pit expects {{'id': …}}: {pit!r}")
            if "scroll" in spec:
                # OpenSearch refuses the combination too: PIT replaces
                # scroll (pit + search_after is the pagination story)
                raise ValueError("pit and scroll are mutually exclusive")
            p["pit_id"] = str(pit["id"])
            if "keep_alive" in pit:
                p["pit_keep_alive"] = str(pit["keep_alive"])
        if "sort" in spec:
            srt = _normalize_sort(spec["sort"])
            if srt:
                p["sort"] = srt
        if "search_after" in spec:
            s, d = spec["search_after"]
            if p.get("sort"):
                # field sort: the cursor key is TYPED JSON (string /
                # number / ISO timestamp / null) — pass it through
                p["search_after"] = [s, int(d)]
            else:
                p["search_after"] = f"{float(s)!r},{int(d)}"
        if "_source" in spec:
            src = spec["_source"]
            p["fields"] = ",".join(src if isinstance(src, list) else [src])
        if "highlight" in spec:
            h = spec["highlight"]
            hfields = h.get("fields", {})
            if len(hfields) > 1:
                raise ValueError("one highlight field supported")
            if hfields:
                field = next(iter(hfields))
                p["highlight"] = field
                fopts = hfields[field] or {}
                if "fragment_size" in fopts:
                    p["hl_width"] = str(int(fopts["fragment_size"]))
                def _tag(v):
                    # OpenSearch sends tag LISTS; accept a bare string
                    # too (indexing a string with [0] would silently
                    # wrap snippets in its first character)
                    if isinstance(v, (list, tuple)):
                        return v[0] if v else None
                    return v

                pre = _tag(h.get("pre_tags") or fopts.get("pre_tags"))
                post = _tag(h.get("post_tags") or fopts.get("post_tags"))
                if pre is not None:
                    p["hl_pre"] = str(pre)
                if post is not None:
                    p["hl_post"] = str(post)
        # every named agg parses to its own spec, so two terms aggs (or
        # terms + stats on one field) never collide on a response key
        specs = aggs.parse(spec.get("aggs") or spec.get("aggregations") or {})
        out = self._search(p, specs)
        if "suggest" in spec:
            # the OpenSearch suggest envelope riding a search body:
            # {"name": {"text": …, "term": {...}}} → per-name options
            # from the same did-you-mean suggester /_suggest serves
            from .query.suggest import Suggester

            if not isinstance(spec["suggest"], dict):
                raise ValueError(
                    f"suggest must be an object: {spec['suggest']!r}"
                )
            if self._suggester is None:
                self._suggester = Suggester(self._reader)
            sugg = {}
            for name, sp in spec["suggest"].items():
                if not isinstance(sp, dict) or "text" not in sp:
                    raise ValueError(f"suggest {name!r} needs text: {sp!r}")
                n = int((sp.get("term") or {}).get("size", 3))
                opts = self._suggester.suggest(sp["text"], max_suggestions=n)
                sugg[name] = [{
                    "text": sp["text"],
                    "options": [{"text": t, "score": sc} for t, sc in opts],
                }]
            out["suggest"] = sugg
        return out

    def _hybrid_search(self, spec: dict, params) -> dict:
        """OpenSearch 2.x ``hybrid`` query — BM25 + k-NN (or any mix of
        DSL sub-queries) fused with Reciprocal Rank Fusion at the
        coordinator, mirroring OpenSearch's architecture: each
        sub-query runs its OWN query phase through the real backend
        (per-shard evaluation + exact cross-shard merge on the fleet)
        at ``window_size``, and fusion happens here over ≤ legs ×
        window candidate rows — output-scale by construction
        (``query/hybrid.rrf_fuse``; Cormack et al., SIGIR 2009).

        Body shape: ``{"query": {"hybrid": {"queries": [<DSL>, …],
        "window_size": 100, "rank_constant": 60}}, "size", "from",
        "_source"}``.  ``_score`` is the fused RRF value; ``total`` is
        the candidate-union size with relation ``gte`` (the true union
        is window-capped by design).  Highlight / sort / aggs / scroll
        don't compose with hybrid (refused loudly, like OpenSearch's
        processor restrictions); pagination is offset-only.  The fused
        page takes the backend's own fetch phase: each hit is read by
        the shard that owns it (row-group-pruned ``fetch_docs``)."""
        from .query.dsl import dsl_to_node
        from .query.hybrid import rrf_fuse

        for bad in ("sort", "highlight", "aggs", "aggregations",
                    "scroll", "search_after"):
            if bad in spec:
                raise ValueError(f"hybrid does not compose with {bad!r}")
        hyb = spec["query"]["hybrid"]
        if not isinstance(hyb, dict) or not isinstance(
            hyb.get("queries"), list
        ) or not hyb["queries"]:
            raise ValueError("hybrid expects {'queries': [<DSL>, …]}")
        legs = hyb["queries"]
        if len(legs) > 8:
            raise ValueError("hybrid supports at most 8 sub-queries")
        # ONE backend snapshot; validate every leg BEFORE any fan-out
        svc, analyzer = self._svc, self._analyzer
        for leg in legs:
            dsl_to_node(leg, analyzer)
        k = int(spec.get("size", params.get("size", params.get("k", "10"))))
        from_ = int(spec.get("from", params.get("from", "0")))
        if k < 0 or from_ < 0:
            raise ValueError(f"size and from must be >= 0, got {k}/{from_}")
        window = int(hyb.get("window_size", max(100, from_ + k)))
        rrf_k = int(hyb.get("rank_constant", 60))
        src = spec.get("_source", params.get("fields", "url,title"))
        fields = tuple(
            f
            for f in (src if isinstance(src, list) else str(src).split(","))
            if f
        )
        t0 = time.perf_counter()
        maps = []
        for leg in legs:
            hits = svc.query_string(leg, k=window)
            maps.append({int(d): r for r, (d, _) in enumerate(hits, 1)})
        fused = rrf_fuse(maps, k=rrf_k, topn=from_ + k).slice(from_)
        page = list(
            zip(fused["doc_id"].to_pylist(), fused["rrf"].to_pylist())
        )
        table = svc.fetch_phase(
            page, None, fields, None, 160, False, rank_start=from_ + 1
        )
        took = int((time.perf_counter() - t0) * 1000)
        hits_out = []
        for row in table.to_pylist():
            hits_out.append({
                "_id": row["doc_id"],
                "_score": row["score"],
                "_source": {f: _jsonable(row[f]) for f in fields},
            })
        return {
            "took": took,
            "timed_out": False,
            "hits": {
                "total": {
                    "value": len(set().union(*[set(m) for m in maps])),
                    "relation": "gte",
                },
                "hits": hits_out,
            },
        }

    def _search(self, params, body_aggs=()) -> dict:
        q = params["q"]
        k = int(params.get("size", params.get("k", "10")))
        from_ = int(params.get("from", "0"))
        if k < 0 or from_ < 0:
            # OpenSearch 400s negative paging; a negative size would
            # also break the scroll cursor (empty page, [-1] index)
            raise ValueError(f"size and from must be >= 0, got {k}/{from_}")
        # field sort (OpenSearch `sort` clause): "col" or "col:asc|desc"
        # — field order defaults ASC per OpenSearch; "_score" keeps the
        # default relevance ranking
        sort_spec = None
        srt = params.get("sort")
        if srt and srt.split(":", 1)[0] != "_score":
            col, _, order = srt.partition(":")
            if order not in ("", "asc", "desc"):
                raise ValueError(f"sort order must be asc|desc: {srt!r}")
            sort_spec = (col, order or "asc")
        after = None
        if params.get("search_after"):
            sa = params["search_after"]
            if sort_spec is not None:
                # the previous page's last hit's [key, doc_id] — key in
                # the FIELD's space (typed JSON via POST; on GET a
                # string that the sort kernel casts to the column type)
                if isinstance(sa, (list, tuple)):
                    after = (sa[0], int(sa[1]))
                else:
                    key, d = sa.rsplit(",", 1)
                    after = (None if key in ("", "null") else _maybe_num(key),
                             int(d))
            elif isinstance(sa, (list, tuple)):
                # scroll continuation / POST body: [score, doc_id]
                after = (float(sa[0]), int(sa[1]))
            else:
                # "score,doc_id" — the `sort` values of the previous
                # page's last hit, fed back verbatim
                s, d = sa.split(",")
                after = (float(s), int(d))
        # a dict q is a JSON query-DSL object — DSL lowers onto the
        # query_string AST, so it always takes the syntax path
        syntax = isinstance(q, dict) or params.get("syntax", "0") in ("1", "true")
        fields = tuple(f for f in params.get("fields", "url,title").split(",") if f)
        highlight = params.get("highlight") or None
        hl_width = int(params.get("hl_width", "160"))
        hl_tags = (params.get("hl_pre", "<em>"),
                   params.get("hl_post", "</em>"))
        t0 = time.perf_counter()
        # ONE backend snapshot for the whole request: hits, total and
        # aggregations must come from the same build — a _reload
        # completing mid-request otherwise mixes two builds (total
        # smaller than the hits it accompanies)
        svc, reader, analyzer = self._svc, self._reader, self._analyzer
        if params.get("pit_id"):
            # point-in-time search: an in-process shard over the pinned
            # OLD-build reader serves instead of the current backend
            # (fleet included — a PIT pins a build, and the fleet
            # always tracks CURRENT)
            svc, reader = self._pit_backend(
                params["pit_id"], params.get("pit_keep_alive")
            )
        # the aggregation plan comes first: a malformed count leg must
        # fail before any shard call.  Identical ops run once
        # (extended_stats shares the stats op, terms and rare_terms
        # one terms count); idx[i] are the
        # positions in ops of the results specs[i] renders from
        specs = aggs.shorthand(params) + list(body_aggs)
        plan = {}  # repr(op) → (position in ops, op)
        idx = [
            [plan.setdefault(repr(op), (len(plan), op))[0]
             for op in spec.ops(reader, analyzer)]
            for spec in specs
        ]
        ops = [op for _, op in plan.values()]
        # query then fetch: ONE query-phase fan-out returns each
        # shard's page, its true match count and every aggregation
        # partial from one evaluation; the fetch reads the page's hits
        page, total, res = svc.query_phase(
            q, syntax, "or", page_rank(k, from_, after, sort_spec), ops
        )
        table = svc.fetch_phase(
            page[from_:], q, fields, highlight, hl_width, syntax,
            rank_start=from_ + 1, hl_tags=hl_tags,
        )
        took = int((time.perf_counter() - t0) * 1000)
        hits = []
        for row in table.to_pylist():
            hit = {
                "_id": row["doc_id"],
                # OpenSearch reports _score: null when sorting by field
                "_score": None if sort_spec else row["score"],
                "_source": {f: _jsonable(row[f]) for f in fields},
                # feed the LAST hit's sort values back as search_after
                # to fetch the next page (stateless deep pagination)
                "sort": (
                    [_jsonable(row["sort_key"]), row["doc_id"]]
                    if sort_spec
                    else [row["score"], row["doc_id"]]
                ),
            }
            if highlight is not None:
                hit["highlight"] = {highlight: [row["snippet"]]}
            hits.append(hit)
        out = {
            "took": took,
            "timed_out": False,
            "hits": {
                "total": {"value": total, "relation": "eq"},
                "hits": hits,
            },
        }
        if params.get("pit_id"):
            out["pit_id"] = params["pit_id"]
        if params.get("scroll"):
            # scrolling search: hand back the stateless continuation id
            # (scroll composes with from_=0 pages only, like OpenSearch)
            if from_:
                raise ValueError("scroll and from are mutually exclusive")
            out["_scroll_id"] = self._scroll_state(params, table, k, sort_spec)
        if specs:
            got = [[res[j] for j in i] for i in idx]
            # an agg may need a second query phase over the first one's
            # merged results (terms→top_hits: the head-k hits of the
            # merged buckets) — one more round, shared by the request
            second = [spec.second_ops(g) for spec, g in zip(specs, got)]
            flat = [op for ops2 in second for op in ops2]
            if flat:
                more = iter(svc.query_phase(q, syntax, ops=flat)[2])
                for g, ops2 in zip(got, second):
                    g += [next(more) for _ in ops2]
            # late aggs (sibling pipelines) read their parent's rendered
            # buckets: they render after every other agg, whatever the
            # body order
            rendered = out["aggregations"] = {}
            ctx = aggs.RenderCtx(total, reader, rendered)
            for spec, g in sorted(zip(specs, got), key=lambda sg: sg[0].late):
                rendered[spec.name] = spec.render(g, ctx)
        return out

    # ------------------------------------------------------------ scroll

    def _scroll_state(self, params, table, k: int, sort_spec) -> str:
        """Encode the NEXT page of a scrolling search as a stateless
        ``_scroll_id``: the search spec + the last hit's sort values +
        the build identity ``(fingerprint, generation)``.  OpenSearch
        scroll pins a snapshot server-side; this engine's builds are
        immutable directories, so the id pins the build instead and a
        continuation after ANY write is REFUSED loudly (the honest
        stateless equivalent — no silent mixing of two builds)."""
        import base64

        if table.num_rows < k or table.num_rows == 0:
            # page exhausted (also the size=0 scroll: an empty page has
            # no last hit to cursor from — the next page stays empty)
            cursor = None
        elif sort_spec is not None:
            cursor = [
                _jsonable(table["sort_key"].to_pylist()[-1]),
                table["doc_id"].to_pylist()[-1],
            ]
        else:
            cursor = [
                table["score"].to_pylist()[-1],
                table["doc_id"].to_pylist()[-1],
            ]
        state = {
            "q": params["q"],
            "size": k,
            "fields": params.get("fields", "url,title"),
            "highlight": params.get("highlight", ""),
            "sort": params.get("sort", ""),
            "syntax": params.get("syntax", "0"),
            "cursor": cursor,
            "fp": self._reader.manifest.get("fingerprint"),
            "gen": self._gen,
        }
        # highlight formatting must survive into continuation pages —
        # otherwise page 2+ silently reverts to <em>/default width
        for hk in ("hl_width", "hl_pre", "hl_post"):
            if hk in params:
                state[hk] = params[hk]
        return base64.urlsafe_b64encode(
            json.dumps(state, sort_keys=True).encode()
        ).decode()

    def _scroll(self, params, body: bytes) -> dict:
        """``POST /_search/scroll`` — continue a scrolling search from
        its ``scroll_id``.  The id is stateless (the cursor + search
        spec ride inside it); a write or reload since the scroll began
        invalidates it (OpenSearch's ``search_context_missing``)."""
        import base64

        spec = json.loads(body) if body.strip() else {}
        sid = spec.get("scroll_id") or params.get("scroll_id")
        if not sid:
            raise ValueError("scroll requires scroll_id")
        try:
            state = json.loads(base64.urlsafe_b64decode(sid.encode()))
        except Exception:
            raise ValueError("malformed scroll_id") from None
        if (
            state.get("fp") != self._reader.manifest.get("fingerprint")
            or state.get("gen") != self._gen
        ):
            raise ValueError(
                "search_context_missing: the index changed since this "
                "scroll began (stateless scroll ids pin one build)"
            )
        if state["cursor"] is None:
            # exhausted — the empty terminal page (same id comes back)
            return {
                "_scroll_id": sid,
                "took": 0,
                "timed_out": False,
                "hits": {"total": {"value": 0, "relation": "eq"},
                         "hits": []},
            }
        p = {
            "q": state["q"],
            "size": str(state["size"]),
            "fields": state["fields"],
            "syntax": state["syntax"],
            "scroll": "1",
            "search_after": state["cursor"],
        }
        if state["highlight"]:
            p["highlight"] = state["highlight"]
        if state["sort"]:
            p["sort"] = state["sort"]
        for hk in ("hl_width", "hl_pre", "hl_post"):
            if hk in state:
                p[hk] = state[hk]
        return self._search(p)

    def _count(self, params) -> dict:
        q = params["q"]
        syntax = params.get("syntax", "0") in ("1", "true")
        return {"count": self._svc.query_phase(q, syntax)[1]}

    def _count_post(self, params, body: bytes) -> dict:
        """``POST /_count`` with ``{"query": <DSL>}`` (OpenSearch body
        form); URL params remain the GET fallback."""
        from .query.dsl import dsl_to_node

        spec = json.loads(body) if body.strip() else {}
        if not isinstance(spec, dict):
            raise ValueError("body must be a JSON object")
        if "query" in spec:
            if not isinstance(spec["query"], dict):
                raise ValueError(f"query must be an object: {spec['query']!r}")
            # validated before the fan-out: a malformed DSL must 400
            # with the clean DslError message, not an n-shard round
            # trip surfacing a Ray-wrapped traceback
            dsl_to_node(spec["query"], self._analyzer)
            return {"count": self._svc.query_phase(spec["query"], True)[1]}
        return self._count(params)

    def _analyze_post(self, params, body: bytes) -> dict:
        """``POST /_analyze`` with ``{"text": str | [str], "analyzer":
        chain}`` (OpenSearch body form) — an explicit analyzer chain
        overrides the server's; a text LIST analyzes as one stream
        with positions continuing across entries."""
        from .functions.analyzer import Analyzer

        spec = json.loads(body) if body.strip() else {}
        if not isinstance(spec, dict):
            raise ValueError("body must be a JSON object")
        text = spec.get("text", params.get("text"))
        if text is None:
            raise ValueError("_analyze needs text")
        chain = spec.get("analyzer", params.get("analyzer"))
        an = (
            self._analyzer
            if chain is None or chain == self._reader.chain
            else Analyzer(str(chain))  # unknown chain → ValueError → 400
        )
        texts = text if isinstance(text, list) else [text]
        tokens, pos = [], 0
        for t in texts:
            for tok in an(str(t)):
                tokens.append({"token": tok, "position": pos})
                pos += 1
        return {"tokens": tokens}

    def _analyze(self, params) -> dict:
        toks = self._analyzer(params["text"])
        return {"tokens": [{"token": t, "position": i} for i, t in enumerate(toks)]}

    def _explain(self, params) -> dict:
        """``GET /_explain?id=N&q=…`` — per-term BM25 breakdown of one
        doc for a query (``bm25.explain``), OpenSearch ``_explain``
        shape: ``{"_id", "matched", "explanation": {"value",
        "details": [{"term", "tf", "df", "dl", "idf", "weight"}]}}``."""
        from .query.bm25 import explain

        doc_id = int(params["id"])
        if _is_deleted(self._reader, doc_id):
            # tombstoned docs never match any query surface
            return {
                "_id": doc_id,
                "matched": False,
                "explanation": {"value": 0.0, "details": []},
            }
        q = params["q"]
        if isinstance(q, dict) or params.get("syntax", "0") in ("1", "true"):
            # query_string / DSL explanation TREE: per-clause values
            # from the SAME dense evaluator that serves the query
            from .query.qstring import explain_node, parse_query_string

            node = parse_query_string(q, self._analyzer)
            tree = explain_node(self._reader, node, doc_id)
            return {
                "_id": doc_id,
                "matched": tree["matched"],
                "explanation": tree,
            }
        t = explain(self._reader, self._analyzer(q), doc_id)
        details = t.to_pylist()
        total = float(sum(r["weight"] for r in details))
        return {
            "_id": doc_id,
            "matched": bool(details),
            "explanation": {"value": total, "details": details},
        }

    def _root(self, params) -> dict:
        """``GET /`` — the version banner every OpenSearch client pings
        before its first real request (opensearch-py `info()`)."""
        man = self._reader.manifest
        return {
            "name": "docs-indexer-ray",
            "cluster_name": "docs-indexer-ray",
            "version": {
                "distribution": "docs-indexer-ray",
                "number": "1.0.0",
                "build_fingerprint": man["fingerprint"],
            },
            "tagline": "Ray-Data-native full-text index",
        }

    def _cluster_health(self, params) -> dict:
        """``GET /_cluster/health`` — green/yellow status for client
        health checks: green with a live backend, plus the service's
        shard count (1 for the local backend, OpenSearch's
        primary-shard accounting)."""
        n_shards = self._svc.n_shards
        return {
            "cluster_name": "docs-indexer-ray",
            "status": "green",
            "number_of_nodes": 1,
            "active_primary_shards": int(n_shards),
            "active_shards": int(n_shards),
            "unassigned_shards": 0,
            "docs": {"count": int(self._reader.match_all_count())},
        }

    def _tv_reader(self, chain: str):
        """A reader bound to ``chain`` for subfield term vectors —
        cached per chain (reader construction loads norms), cleared on
        every write reload like the rest of the warm state."""
        if chain == self._reader.chain:
            return self._reader
        r = self._tv_readers.get(chain)
        if r is None:
            from .query.reader import IndexReader

            r = self._tv_readers[chain] = IndexReader(
                self.index_root, chain=chain
            )
        return r

    def _termvectors_impl(self, spec: dict) -> dict:
        """Shared GET/POST core of ``/_termvectors``."""
        from .query.termvectors import term_vectors

        doc = spec.get("doc")
        doc_id = spec.get("id")
        if (doc_id is None) == (doc is None):
            raise ValueError("exactly one of id / doc is required")
        if doc is not None and not isinstance(doc, dict):
            raise ValueError(f"doc must be an object: {doc!r}")
        flt = spec.get("filter") or {}
        if not isinstance(flt, dict):
            raise ValueError(f"filter must be an object: {flt!r}")
        kw = dict(
            positions=bool(spec.get("positions", True)),
            offsets=bool(spec.get("offsets", True)),
            term_statistics=bool(spec.get("term_statistics", False)),
            field_statistics=bool(spec.get("field_statistics", True)),
            min_term_freq=int(flt.get("min_term_freq", 1)),
            min_doc_freq=int(flt.get("min_doc_freq", 0)),
        )
        if flt.get("max_doc_freq") is not None:
            kw["max_doc_freq"] = int(flt["max_doc_freq"])
        if flt.get("max_num_terms") is not None:
            kw["max_num_terms"] = int(flt["max_num_terms"])
        fields = spec.get("fields")
        if isinstance(fields, str):
            fields = [f for f in fields.split(",") if f]
        if not fields:
            fields = [self._reader.manifest["field"]]

        out: dict = {"term_vectors": {}}
        for fname in fields:
            # subfield spelling: body.trigram analyzes the stored
            # 'body' column with the build's 'trigram' chain (the
            # reference's text.english/.trigram/.reverse subfields)
            src, chain = fname, self._reader.chain
            if "." in fname:
                base, suffix = fname.rsplit(".", 1)
                known = {self._reader.manifest.get("analyzer")} | set(
                    self._reader.manifest.get("chains", {})
                )
                if suffix in known:
                    src, chain = base, suffix
            reader = self._tv_reader(chain)
            one = term_vectors(
                reader,
                doc_id=None if doc_id is None else int(doc_id),
                text=None if doc is None else str(doc.get(src) or ""),
                field=fname,
                source_field=src,
                **kw,
            )
            for k, v in one.items():
                if k == "term_vectors":
                    out["term_vectors"].update(v)
                else:
                    out[k] = v
            if out.get("found") is False:
                break  # missing doc: one answer, not per-field copies
        return out

    def _termvectors(self, params) -> dict:
        """``GET /_termvectors?id=N&fields=body,title&…`` — per-doc
        term statistics (OpenSearch Term Vectors API), computed on the
        fly by re-analyzing the stored text with the serving chain."""
        spec: dict = {}
        if "id" in params:
            spec["id"] = int(params["id"])
        if "fields" in params:
            spec["fields"] = params["fields"]
        for flag in ("positions", "offsets", "term_statistics",
                     "field_statistics"):
            if flag in params:
                spec[flag] = params[flag] in ("1", "true", "True")
        flt = {
            k: int(params[k])
            for k in ("max_num_terms", "min_term_freq", "min_doc_freq",
                      "max_doc_freq")
            if k in params
        }
        if flt:
            spec["filter"] = flt
        return self._termvectors_impl(spec)

    def _termvectors_post(self, params, body: bytes) -> dict:
        """``POST /_termvectors`` — body form; adds the artificial-
        document spelling ``{"doc": {field: text}}`` (term vector of
        un-indexed text, OpenSearch parity) and the ``filter`` block."""
        spec = json.loads(body) if body.strip() else {}
        if not isinstance(spec, dict):
            raise ValueError("body must be a JSON object")
        # GET-style URL params fill gaps (id, fields, flags)
        if "id" not in spec and "doc" not in spec and "id" in params:
            spec["id"] = int(params["id"])
        if "fields" not in spec and "fields" in params:
            spec["fields"] = params["fields"]
        return self._termvectors_impl(spec)

    def _doc(self, params) -> dict:
        """``GET /_doc?id=N&fields=a,b`` — stored-field fetch by doc
        id (row-group-pruned), OpenSearch ``GET <index>/_doc/<id>``
        shape: ``{"_id", "found", "_source": {…}}``."""
        doc_id = int(params["id"])
        fields = [f for f in params.get("fields", "url,title").split(",") if f]
        if _is_deleted(self._reader, doc_id):
            # consistent with /_search and /_stats: deleted = gone
            return {"_id": doc_id, "found": False}
        t = self._reader.fetch_docs([doc_id], ["doc_id"] + fields)
        if t.num_rows == 0:
            return {"_id": doc_id, "found": False}
        row = t.to_pylist()[0]
        return {
            "_id": doc_id,
            "found": True,
            "_source": {f: row[f] for f in fields},
        }

    def _mget(self, params, body: bytes) -> dict:
        """``POST /_mget`` — batch stored-field fetch by doc ids in
        ONE row-group-pruned read (the reference's consumers page over
        result ids; a per-id ``/_doc`` loop pays the fetch N times).
        OpenSearch shape: ``{"docs": [{"_id", "found", "_source"}…]}``;
        tombstoned / unknown ids come back ``found: false``."""
        spec = json.loads(body) if body.strip() else {}
        ids = spec.get("ids")
        if not isinstance(ids, list) or not ids:
            raise ValueError("_mget expects {'ids': [doc_id, …]}")
        ids = [int(i) for i in ids]
        src = spec.get("_source", params.get("fields", "url,title"))
        fields = [
            f
            for f in (src if isinstance(src, list) else str(src).split(","))
            if f
        ]
        t = self._reader.fetch_docs(sorted(set(ids)), ["doc_id"] + fields)
        rows = {
            int(r["doc_id"]): r for r in t.to_pylist()
        }
        docs = []
        for i in ids:
            r = rows.get(i)
            if r is None or _is_deleted(self._reader, i):
                docs.append({"_id": i, "found": False})
            else:
                docs.append({
                    "_id": i,
                    "found": True,
                    "_source": {f: _jsonable(r[f]) for f in fields},
                })
        return {"docs": docs}

    def _field_caps(self, params) -> dict:
        """``GET /_field_caps`` — per-field type/searchability derived
        from the same schema walk as ``/_mapping`` (OpenSearch field
        capabilities shape): the analyzed field (+ chains) is
        searchable text; stored columns are filterable/aggregatable
        keyword/date/numeric."""
        props = self._mapping(params)["mappings"]["properties"]
        man = self._reader.manifest
        fields = {}
        for name, spec in props.items():
            kind = spec["type"]
            fields[name] = {
                kind: {
                    "type": kind,
                    "searchable": name == man.get("field") or kind != "text",
                    "aggregatable": kind != "text",
                }
            }
        return {"fields": fields}

    def _validate(self, params, body: bytes) -> dict:
        """``POST /_validate/query`` — parse-check a query_string or
        DSL body WITHOUT running it (OpenSearch shape: never a 400 for
        an invalid query — ``valid: false`` + the reason)."""
        from .query.dsl import DslError
        from .query.qstring import QueryStringError, parse_query_string

        spec = json.loads(body) if body.strip() else {}
        q = spec.get("query", params.get("q"))
        if q is None:
            raise ValueError("_validate/query expects {'query': …} or ?q=")
        try:
            parse_query_string(q, self._analyzer)
        except (DslError, QueryStringError, ValueError) as e:
            return {
                "valid": False,
                "error": {"type": type(e).__name__, "reason": str(e)},
            }
        return {"valid": True}

    def _rank_eval(self, params, body: bytes) -> dict:
        """``POST /_rank_eval`` — search-quality evaluation against
        graded judgments (OpenSearch shape): per request a DSL /
        query_string query runs through the REAL serving backend
        (the same ranking users get), hits score
        against the ratings with the shared exact-int metric kernel
        (``rank_eval.metrics_at_k``: precision@k, MRR, DCG, NDCG),
        and ``metric_score`` is the requested metric's mean.
        Judgments are evaluation-scale by definition — the only
        distributed work is the retrieval itself."""
        from .query.rank_eval import metrics_at_k

        spec = json.loads(body) if body.strip() else {}
        reqs = spec.get("requests")
        if not isinstance(reqs, list) or not reqs:
            raise ValueError("_rank_eval expects {'requests': […]}")
        metric_spec = spec.get("metric", {"precision": {"k": 10}})
        if not isinstance(metric_spec, dict) or len(metric_spec) != 1:
            raise ValueError(f"one metric expected: {metric_spec!r}")
        mname, mopts = next(iter(metric_spec.items()))
        known = ("precision", "mean_reciprocal_rank", "dcg")
        if mname not in known:
            raise ValueError(f"metric must be one of {known}: {mname!r}")
        k = int((mopts or {}).get("k", 10))
        if k < 1:
            raise ValueError(f"metric k must be >= 1: {k}")
        normalize = bool((mopts or {}).get("normalize", False))
        svc = self._svc
        details = {}
        scores = []
        for req in reqs:
            rid = str(req.get("id"))
            q = (req.get("request") or {}).get("query")
            if q is None or "ratings" not in req:
                raise ValueError(
                    f"request needs id + request.query + ratings: {req!r}"
                )
            judged = {
                int(r["_id"]): int(r.get("rating", 0))
                for r in req["ratings"]
            }
            hits = svc.query_string(q, k=k)
            ids = [int(d) for d, _ in hits]
            p, mrr, dcg, ndcg = metrics_at_k(ids, judged, k)
            score = {
                "precision": p,
                "mean_reciprocal_rank": mrr,
                "dcg": ndcg if normalize else dcg,
            }[mname]
            scores.append(score)
            details[rid] = {
                "metric_score": score,
                "precision": p, "mrr": mrr, "dcg": dcg, "ndcg": ndcg,
                "hits": ids,
                "unrated_docs": [d for d in ids if d not in judged],
            }
        return {
            "metric_score": sum(scores) / len(scores),
            "details": details,
        }

    def _explain_post(self, params, body: bytes) -> dict:
        """``POST /_explain?id=N`` with ``{"query": <DSL>}`` — the
        OpenSearch body spelling; lowers onto the same explanation
        tree the GET ``syntax=1`` path builds."""
        spec = json.loads(body) if body.strip() else {}
        p = dict(params)
        if "query" in spec:
            p["q"] = spec["query"]
        if "id" in spec:
            p["id"] = str(int(spec["id"]))
        return self._explain(p)

    def _cat_indices(self, params) -> dict:
        """``GET /_cat/indices`` (the JSON ``format=json`` shape): one
        row for the served index — live/deleted doc counts from the
        manifest + tombstones, on-disk size from the build dir."""
        import os

        man = self._reader.manifest
        n = int(man["n_docs"])
        dead = len(self._reader.deleted_ids())
        size = 0
        for dirpath, _, files in os.walk(self._reader.index_dir):
            for f in files:
                try:
                    size += os.path.getsize(os.path.join(dirpath, f))
                except OSError:
                    pass
        return {"indices": [{
            "health": "green",
            "status": "open",
            "index": man.get("prefix", "docs"),
            "docs.count": n - dead,
            "docs.deleted": dead,
            "store.size_bytes": size,
            "fingerprint": man.get("fingerprint"),
        }]}

    def _mapping(self, params) -> dict:
        """``GET /_mapping`` — the index's field surface derived from
        the docs-store schema + manifest (OpenSearch mapping shape:
        stored columns as keyword/text/date properties, the analyzed
        field and extra chains from the manifest)."""
        import os

        import pyarrow.dataset as pads

        man = self._reader.manifest
        schema = pads.dataset(
            os.path.join(self._reader.index_dir, "docs"), partitioning="hive"
        ).schema
        import pyarrow.types as pt

        props = {}
        for f in schema:
            if f.name in ("docpart",):
                continue
            if pt.is_timestamp(f.type):
                kind = "date"
            elif pt.is_integer(f.type) or pt.is_floating(f.type):
                kind = "long" if pt.is_integer(f.type) else "double"
            elif pt.is_list(f.type) or pt.is_large_list(f.type):
                kind = "keyword"
            else:
                kind = "text" if f.name == man.get("field") else "keyword"
            props[f.name] = {"type": kind}
        if man.get("field") in props:
            props[man["field"]]["analyzer"] = man.get("analyzer")
        return {
            "mappings": {"properties": props},
            "settings": {
                "analyzer": man.get("analyzer"),
                "extra_chains": sorted(man.get("chains", {})),
                "store_positions": bool(man.get("store_positions", False)),
                "num_parts": int(man.get("num_parts", 0)),
            },
        }

    def _stats(self, params) -> dict:
        """``GET /_stats`` — doc counts + build facts from the
        manifest (OpenSearch ``_stats`` condensed to what exists)."""
        man = self._reader.manifest
        n = int(man["n_docs"])
        live = n - len(self._reader.deleted_ids())
        return {
            "docs": {"count": live, "deleted": n - live},
            "fingerprint": man.get("fingerprint"),
            "avgdl": float(man.get("avgdl", 0.0)),
            "timings_s": man.get("timings_s", {}),
        }

    def _suggest(self, params) -> dict:
        from .query.suggest import Suggester

        if self._suggester is None:
            self._suggester = Suggester(self._reader)
        n = int(params.get("n", "3"))
        out = self._suggester.suggest(params["q"], max_suggestions=n)
        return {"suggestions": [{"text": t, "score": s} for t, s in out]}

    # ------------------------------------------------------------ writes

    def _bulk(self, params, body: bytes) -> dict:
        """OpenSearch ``_bulk`` (index actions only): NDJSON pairs of
        ``{"index": {}}`` + source doc (``url`` required; ``html`` or
        ``text``; optional ``warc_ts`` µs int, ``lang``).  The batch
        runs ONE incremental update (seen-url filter → delta build →
        k-way merge — the engine's nightly path, not one call per doc
        like the reference's loop), then the serving backend reloads
        the new published build.

        Default semantics are append-only: a doc whose url is already
        indexed is NOT re-indexed and its item reports ``{"status":
        200, "result": "noop"}`` (never a silent 201).  ``?upsert=1``
        gives OpenSearch overwrite semantics: seen urls are re-indexed
        as new docs and the superseded base ids are tombstoned in the
        merged build (``result: "updated"``) — old versions vanish
        from every query surface immediately, space is reclaimed at
        the next compaction, exactly Lucene's update-is-delete+add."""
        import html as _html
        import time as _time

        import pyarrow as pa
        import ray.data

        from .pipelines.incremental import incremental_update

        lines = [ln for ln in body.decode("utf-8").splitlines() if ln.strip()]
        docs = []
        i = 0
        while i < len(lines):
            action = json.loads(lines[i])
            if "index" not in action:
                raise ValueError(f"only 'index' bulk actions supported: {action}")
            if i + 1 >= len(lines):
                raise ValueError("bulk action without a source line")
            docs.append(json.loads(lines[i + 1]))
            i += 2
        if not docs:
            raise ValueError("empty bulk body")
        urls, tss, htmls, texts, langs = [], [], [], [], []
        for d in docs:
            if "url" not in d:
                raise ValueError(f"bulk doc missing 'url': {d}")
            urls.append(d["url"])
            tss.append(int(d.get("warc_ts", 0)))
            text = d.get("text", "")
            h = d.get("html")
            if h is None:
                h = f"<html><body><p>{_html.escape(text)}</p></body></html>"
            htmls.append(h.encode() if isinstance(h, str) else h)
            texts.append(text)
            langs.append(d.get("lang", "en"))
        upsert = params.get("upsert", "0") in ("1", "true")
        # which batch urls already exist in the base build (and their
        # doc ids, needed for the upsert tombstones): ONE pruned
        # two-column read filtered to the batch's url set — the same
        # corpus-scale read base_url_filter's exact mode already does
        import os

        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        from .index import manifest as mf

        bdir = mf.current_build(self.index_root) or self.index_root
        seen_tbl = pads.dataset(
            os.path.join(bdir, "docs"), partitioning="hive"
        ).to_table(
            columns=["doc_id", "url"],
            filter=pc.field("url").isin(list(set(urls))),
        )
        # tombstoned docs don't count as seen — a deleted url must be
        # re-indexable in default mode (and never re-tombstoned on
        # upsert); base_url_filter applies the same rule
        from .index.deletes import load_delete_ids

        dead = load_delete_ids(bdir)
        if len(dead):
            import numpy as np

            ids = seen_tbl["doc_id"].to_numpy(zero_copy_only=False).astype(
                "int64"
            )
            d = np.sort(dead.astype("int64"))
            idx = np.clip(np.searchsorted(d, ids), 0, len(d) - 1)
            seen_tbl = seen_tbl.filter(pa.array(d[idx] != ids, pa.bool_()))
        seen_urls = set(seen_tbl["url"].to_pylist())
        if upsert:
            # within-batch duplicates: last occurrence wins (OpenSearch
            # applies bulk actions in order) — keep only the last row
            # per url so the index never gains two live versions
            last = {u: i for i, u in enumerate(urls)}
            keep = sorted(last.values())
        else:
            keep = list(range(len(urls)))
        pages = pa.table(
            {
                "url": pa.array([urls[i] for i in keep], pa.string()),
                "warc_ts": pa.array(
                    [tss[i] for i in keep], pa.int64()
                ).cast(pa.timestamp("us")),
                "html": pa.array([htmls[i] for i in keep], pa.binary()),
                "text": pa.array([texts[i] for i in keep], pa.string()),
                "lang": pa.array([langs[i] for i in keep], pa.string()),
            }
        )
        t0 = _time.perf_counter()
        man = incremental_update(
            self.index_root,
            ray.data.from_arrow(pages),
            self.index_root,
            reindex_seen=upsert,
        )
        if upsert and seen_urls:
            # the base is the merge's shift-0 input, so superseded ids
            # are unchanged in the merged build — tombstone them
            from .index.deletes import add_deletes

            add_deletes(
                mf.current_build(self.index_root) or self.index_root,
                seen_tbl["doc_id"].to_numpy(zero_copy_only=False).astype("int64"),
            )
        self._reload()
        items = []
        for u in urls:
            if u in seen_urls:
                items.append(
                    {"index": {"status": 200,
                               "result": "updated" if upsert else "noop"}}
                )
            else:
                items.append({"index": {"status": 201, "result": "created"}})
        return {
            "took": int((_time.perf_counter() - t0) * 1000),
            "errors": False,
            "items": items,
            "n_docs": int(man["n_docs"]),
        }

    def _msearch(self, params, body: bytes) -> dict:
        """``POST /_msearch`` — NDJSON of one query object per line
        (``{"q": …, "k"?, "syntax"?, "fields"?, "highlight"?}``), each
        answered by the ``/_search`` machinery → ``{"took",
        "responses": […]}`` (OpenSearch multi-search shape)."""
        import time as _time

        t0 = _time.perf_counter()
        responses = []
        for ln in body.decode("utf-8").splitlines():
            if not ln.strip():
                continue
            spec = json.loads(ln)
            # "query": a JSON query-DSL object (like POST /_search);
            # "q": query_string / plain text
            p = {"q": spec["query"] if "query" in spec else spec["q"]}
            for key in ("k", "syntax", "fields", "highlight"):
                if key not in spec:
                    continue
                v = spec[key]
                if key == "fields" and isinstance(v, list):
                    v = ",".join(v)  # JSON-native list form
                elif key == "syntax":
                    v = "1" if v in (True, 1, "1", "true", "True") else "0"
                # field/column names are case-sensitive — never .lower()
                p[key] = str(v)
            responses.append(self._search(p))
        return {
            "took": int((_time.perf_counter() - t0) * 1000),
            "responses": responses,
        }

    def _snapshot(self, params, body: bytes) -> dict:
        """``POST /_snapshot?dir=…[&name=…]`` — hardlink snapshot of
        the current build (``index.snapshot.snapshot_index``)."""
        from .index.snapshot import snapshot_index

        path = snapshot_index(
            self.index_root, params["dir"], name=params.get("name")
        )
        return {"snapshot": path, "accepted": True}

    def _restore(self, params, body: bytes) -> dict:
        """``POST /_restore?snapshot=…[&force=1]`` — restore + verify a
        snapshot into this index root and reload the serving backend.
        ``force=1`` is the ROLLBACK path: a build of the same name
        already under the root (e.g. the live build the snapshot was
        taken from, later tombstoned) is replaced — OpenSearch's
        close-then-restore, collapsed into one call."""
        import os
        import shutil

        from .index.snapshot import restore_index

        snap = params["snapshot"]
        if params.get("force", "0") in ("1", "true"):
            with open(os.path.join(snap, "snapshot.json")) as f:
                build_name = json.load(f)["build"]
            existing = os.path.join(self.index_root, build_name)
            if os.path.exists(existing):
                shutil.rmtree(existing)
        fp = restore_index(snap, self.index_root)
        self._reload()
        return {"restored": fp, "accepted": True}

    def _delete_by_query(self, params, body: bytes) -> dict:
        from .index import manifest as mf
        from .index.deletes import delete_by_terms

        q = params["q"]
        bdir = mf.current_build(self.index_root) or self.index_root
        # analyze AND look up with the server's configured chain — the
        # tokens live in that chain's vocabulary, not the default's
        n = delete_by_terms(bdir, self._analyzer(q), chain=self.chain)
        self._reload()
        return {"deleted": n}

    # ---------------------------------------------------------- PIT

    def _pit_purge(self, now: float) -> None:
        for pid, (*_, exp) in list(self._pits.items()):
            if exp < now:
                del self._pits[pid]

    def _pit_create(self, params, body: bytes = b"") -> dict:
        """``POST /_pit?keep_alive=1m`` — open a point-in-time view:
        searches carrying the returned id keep reading THIS build even
        after ``_bulk``/``_delete_by_query`` swap the serving backend
        (OpenSearch's PIT; the recommended deep-pagination pattern is
        pit + ``search_after``).  The id pins the current build's
        fingerprint; the pinned backend is an in-process shard over
        the reader already warm."""
        from .query.served import ShardedQueryService

        spec = json.loads(body) if body.strip() else {}
        keep = _duration_s(spec.get("keep_alive",
                                    params.get("keep_alive", "5m")))
        import time as _time

        now = _time.monotonic()
        reader = self._reader
        svc = ShardedQueryService.in_process(reader)
        with self._cache_lock:
            self._pit_purge(now)
            self._pit_seq += 1
            pid = f"pit-{reader.manifest['fingerprint']}-{self._pit_seq}"
            self._pits[pid] = (svc, reader, now + keep)
        return {"pit_id": pid, "creation_time": int(_time.time() * 1000)}

    def _pit_delete(self, params, body: bytes = b"") -> dict:
        """``POST /_pit/delete`` with ``{"pit_id": id | [ids]}``."""
        spec = json.loads(body) if body.strip() else {}
        ids = spec.get("pit_id")
        if isinstance(ids, str):
            ids = [ids]
        if not isinstance(ids, list) or not ids:
            raise ValueError("_pit/delete expects {'pit_id': id | [ids]}")
        out = []
        with self._cache_lock:
            for pid in ids:
                out.append({"pit_id": pid,
                            "successful": self._pits.pop(pid, None)
                            is not None})
        return {"pits": out}

    def _pit_backend(self, pid: str, keep_alive=None):
        """The pinned ``(service, reader)`` for ``pid`` — refreshes
        expiry when the search passes ``keep_alive`` (OpenSearch
        semantics); raises :class:`PitGone` (404) when unknown,
        expired, or the pinned build was garbage-collected from
        disk."""
        import time as _time

        now = _time.monotonic()
        with self._cache_lock:
            self._pit_purge(now)
            got = self._pits.get(pid)
            if got is None:
                raise PitGone(f"no such point-in-time: {pid!r}")
            svc, reader, _ = got
            if keep_alive is not None:
                self._pits[pid] = (svc, reader, now + _duration_s(keep_alive))
        if not os.path.isdir(reader.index_dir):
            with self._cache_lock:
                self._pits.pop(pid, None)
            raise PitGone(
                f"point-in-time build was garbage-collected: {pid!r}"
            )
        return svc, reader

    def _reload(self) -> None:
        """Swap the serving backend onto the current published build
        (after a bulk merge or delete) — warm state is per-build.
        An old actor fleet is PARKED, not killed: in-flight reads that
        grabbed it before the swap finish against it; it dies at the
        next reload once it is at least ``drain_grace_s`` old."""
        old = self._svc
        self._suggester = None
        self._tv_readers = {}
        self._ensure_backend()
        # bump THEN clear, atomically w.r.t. the GET check-and-insert
        # (same lock): a GET that captured the pre-reload generation
        # fails its gen check and can never re-insert a pre-write
        # response into the freshly cleared cache
        import time as _time

        with self._cache_lock:
            self._gen += 1
            self._cache.clear()
            # live PITs survive the swap by design; EXPIRED ones are
            # dropped here so a dead pinned reader (norms, dictionaries,
            # vector matrices of an old build) can't outlive its
            # keep_alive just because PIT traffic stopped
            self._pit_purge(_time.monotonic())
        self._retire(old)

    def _retire(self, svc) -> None:
        import time as _time

        if not svc.remote:
            return  # in-process: owns no actors, nothing to drain
        prev, self._parked = self._parked, (svc, _time.monotonic())
        if prev is not None:
            psvc, t0 = prev
            wait = self.drain_grace_s - (_time.monotonic() - t0)
            if wait > 0:  # writes serialize anyway; bounded, rare
                _time.sleep(wait)
            psvc.shutdown()

    # ----------------------------------------------------------- server

    def start(self) -> "SearchServer":
        import threading

        self._ensure_backend()
        routes = {
            "/_search": self._search,
            "/_count": self._count,
            "/_analyze": self._analyze,
            "/_suggest": self._suggest,
        }
        routes["/"] = self._root
        routes["/_cluster/health"] = self._cluster_health
        routes["/_doc"] = self._doc
        routes["/_termvectors"] = self._termvectors
        routes["/_explain"] = self._explain
        routes["/_mapping"] = self._mapping
        routes["/_stats"] = self._stats
        routes["/_field_caps"] = self._field_caps
        routes["/_cat/indices"] = self._cat_indices
        post_routes = {
            "/_bulk": self._bulk,
            "/_delete_by_query": self._delete_by_query,
            "/_msearch": self._msearch,
            "/_search": self._search_post,
            "/_search/scroll": self._scroll,
            "/_mget": self._mget,
            "/_validate/query": self._validate,
            "/_rank_eval": self._rank_eval,
            "/_explain": self._explain_post,
            "/_termvectors": self._termvectors_post,
            "/_pit": self._pit_create,
            "/_pit/delete": self._pit_delete,
            "/_count": self._count_post,
            "/_analyze": self._analyze_post,
            "/_snapshot": self._snapshot,
            "/_restore": self._restore,
        }
        write_lock = threading.Lock()
        server = self  # captured by the handler closure (cache access)

        from .query.qstring import QueryStringError

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *a):  # quiet: the engine logs, not http
                pass

            def do_GET(handler):
                parsed = urlparse(handler.path)
                fn = routes.get(parsed.path)
                params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
                if fn is None:
                    handler._reply(404, {"error": {"type": "not_found",
                                                   "reason": parsed.path}})
                    return
                with server._cache_lock:
                    cached = server._cache.get(handler.path)
                    if cached is not None:
                        server._cache.move_to_end(handler.path)  # LRU
                if cached is not None:
                    handler._reply(200, cached)
                    return
                try:
                    gen = server._gen
                    body = server._healed(fn, params)
                    # only cache if no write completed while computing
                    # — otherwise this response is pre-write stale and
                    # would poison the freshly cleared cache; the gen
                    # check and insert are one atomic section against
                    # _reload's bump+clear
                    with server._cache_lock:
                        if server._gen == gen:
                            while len(server._cache) >= server.cache_size:
                                server._cache.popitem(last=False)
                            server._cache[handler.path] = body
                    handler._reply(200, body)
                except PitGone as e:
                    handler._reply(
                        404,
                        {"error": {"type": "search_context_missing",
                                   "reason": str(e)}},
                    )
                except (KeyError, ValueError, QueryStringError,
                        RecursionError, OverflowError) as e:
                    # RecursionError: a pathologically nested query is
                    # malformed input (400), not a server fault
                    handler._reply(
                        400,
                        {"error": {"type": type(e).__name__, "reason": str(e)}},
                    )
                except Exception as e:  # pragma: no cover — defensive 500
                    handler._reply(
                        500,
                        {"error": {"type": type(e).__name__, "reason": str(e)}},
                    )

            def do_HEAD(handler):
                # client liveness pings (HEAD /); no body by contract
                parsed = urlparse(handler.path)
                handler.send_response(200 if parsed.path in routes else 404)
                handler.send_header("Content-Length", "0")
                handler.end_headers()

            def do_POST(handler):
                parsed = urlparse(handler.path)
                fn = post_routes.get(parsed.path)
                params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
                if fn is None:
                    handler._reply(404, {"error": {"type": "not_found",
                                                   "reason": parsed.path}})
                    return
                body = handler.rfile.read(
                    int(handler.headers.get("Content-Length", "0"))
                )
                try:
                    if parsed.path in ("/_msearch", "/_search",
                                       "/_search/scroll", "/_mget",
                                       "/_validate/query", "/_rank_eval",
                                       "/_explain", "/_termvectors",
                                       "/_count", "/_analyze"):
                        # pure reads — never behind the write lock (a
                        # slow search must not stall bulk writes)
                        handler._reply(200, server._healed(fn, params, body))
                    else:
                        with write_lock:  # writes serialize; reads stay free
                            handler._reply(200, fn(params, body))
                except PitGone as e:
                    # OpenSearch search_context_missing_exception → 404
                    handler._reply(
                        404,
                        {"error": {"type": "search_context_missing",
                                   "reason": str(e)}},
                    )
                except (
                    KeyError, ValueError, QueryStringError,
                    FileNotFoundError, FileExistsError, RecursionError,
                    TypeError, AttributeError, OverflowError,
                ) as e:
                    # RecursionError: json.loads itself raises it on a
                    # hostile deeply-nested body — malformed input, 400.
                    # TypeError/AttributeError: a JSON body with the
                    # wrong SHAPE in any slot ({"highlight": null},
                    # {"search_after": 3}) fails exactly like
                    # OpenSearch's x_content_parse_exception — input
                    # error, fuzz-enforced 400 (a compute-path bug of
                    # the same class would be masked as 400; the fuzz +
                    # suite keep that honest)
                    handler._reply(
                        400,
                        {"error": {"type": type(e).__name__, "reason": str(e)}},
                    )
                except Exception as e:  # pragma: no cover — defensive 500
                    handler._reply(
                        500,
                        {"error": {"type": type(e).__name__, "reason": str(e)}},
                    )

            def _reply(handler, code: int, body: dict):
                data = json.dumps(body).encode()
                handler.send_response(code)
                handler.send_header("Content-Type", "application/json")
                handler.send_header("Content-Length", str(len(data)))
                handler.end_headers()
                handler.wfile.write(data)

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._httpd.server_port
        threading.Thread(target=self._httpd.serve_forever, daemon=True).start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return  # never started, or already stopped
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd = None
        self._svc.shutdown()
        if self._parked is not None:
            self._parked[0].shutdown()
            self._parked = None
