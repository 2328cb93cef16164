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
  {field: {}}}, "aggs": {name: {"terms"|"stats": …}}}``.  The DSL
  (match / match_phrase / term / terms / fuzzy / wildcard / prefix /
  query_string / bool — ``query/dsl.py``) lowers onto the
  query_string AST, so both backends serve it unchanged; aggs come
  back keyed by their agg NAME.
* ``/_count?q=…`` → ``{"count": n}`` (match-any over live docs).
* ``/_analyze?text=…`` → ``{"tokens": [{"token": t, "position": i}]}``.
* ``/_suggest?q=…&n=3`` → ``{"suggestions": [{"text", "score"}]}``.

Round-3 completions of the read surface: field ``sort`` (GET
``sort=col[:asc|desc]`` / body clause, typed ``search_after``
cursors, ``sort_key`` per hit), stateless ``scroll`` +
``POST /_search/scroll`` (the id pins the build — a write invalidates
it loudly), the FULL query DSL on POST bodies (25 clause kinds —
``query/dsl.py``), the aggregation envelope (terms / stats /
date_histogram / histogram / range / cardinality / percentiles +
terms→stats sub-aggregations), highlight ``pre_tags`` / ``post_tags``
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

from .query.facets import is_fixed_interval as _is_fixed_iv
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


def _date_bucket_key(k, arg, calendar: bool) -> dict:
    """A date bucket's OpenSearch ``key`` (epoch millis) and ISO
    ``key_as_string``: a fixed-interval key is the bucket ordinal, a
    calendar key is already the civil bucket start in epoch-us."""
    import datetime as _dt

    epoch_s = int(k) // 1_000_000 if calendar else int(k) * int(arg)
    return {
        "key": epoch_s * 1000,
        "key_as_string": _dt.datetime.utcfromtimestamp(epoch_s).isoformat(),
    }


def _extended_stats(n: int, mn: float, mx: float, s: float, ss: float) -> dict:
    """OpenSearch ``extended_stats`` from count/min/max/sum/sum of
    squares, with the POPULATION variance/std (OpenSearch's
    definition)."""
    mean = s / n
    # ss/n - mean^2 can land slightly NEGATIVE from float
    # cancellation; clamp so variance and std agree
    var = max(ss / n - mean * mean, 0.0)
    return {
        "count": n, "min": mn, "max": mx, "sum": s, "avg": mean,
        "sum_of_squares": ss, "variance": var,
        "std_deviation": var ** 0.5 if var > 0 else 0.0,
    }


def _adjacency_legs(spec: dict) -> list:
    """An adjacency_matrix agg's ``(bucket key, [filter DSL, …])`` legs:
    each named filter, then its intersection with every later name
    (names sorted)."""
    names = sorted(spec["filters"])
    legs = []
    for i, a in enumerate(names):
        legs.append((a, [spec["filters"][a]]))
        for b in names[i + 1:]:
            legs.append((
                f"{a}{spec['separator']}{b}",
                [spec["filters"][a], spec["filters"][b]],
            ))
    return legs


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
                # malformed body costs one parse, not a sharded round
                # trip (and errors 400 un-wrapped, not RayTaskError)
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
        # EVERY named agg becomes one aggs_extra entry — per-name
        # processing, so two terms aggs (or terms + stats on the same
        # field) never collide on a shared slot / response key (the
        # GET shorthand's agg_terms/agg_stats single slots stay
        # GET-only)
        aggs_spec = spec.get("aggs") or spec.get("aggregations") or {}
        if not isinstance(aggs_spec, dict):
            raise ValueError(f"aggs must be an object: {aggs_spec!r}")
        for name, agg in aggs_spec.items():
            if not isinstance(agg, dict):
                raise ValueError(
                    f"aggregation {name!r} must be an object: {agg!r}"
                )
            # the branches below are pure dict parsing — a malformed
            # body's TypeError/AttributeError (e.g. {"terms": null},
            # {"range": {"ranges": 3}}) is INPUT error, the server's
            # 400 contract, never a 500 (fuzz-enforced)
            try:
                self._compile_one_agg(name, agg, p)
            except (TypeError, AttributeError) as e:
                raise ValueError(
                    f"malformed aggregation {name!r}: {e}"
                ) from e
        out = self._search(p)
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

    def _compile_one_agg(self, name, agg, p):
        """One named aggregation body → one ``aggs_extra`` entry (the
        loop body of the agg compiler — see the caller's 400 note)."""
        from .query.dsl import _interval_seconds  # noqa: F401 (branches import)

        if True:  # preserve the original branch indentation
            if "terms" in agg:
                sub = agg.get("aggs") or agg.get("aggregations")
                if sub:
                    # nested terms → metric sub-aggregation (the
                    # canonical OpenSearch nested-agg request): stats,
                    # or any single metric it subsumes (avg/sum/min/
                    # max) — all lower onto the ONE terms_stats
                    # partial; the renderer projects the metric
                    if len(sub) != 1:
                        raise ValueError("one sub-aggregation supported")
                    subname, subspec = next(iter(sub.items()))
                    if "top_hits" in subspec:
                        # terms → top_hits: per bucket, the k best
                        # docs by ONE sort field
                        th = subspec["top_hits"]
                        sort = th.get("sort") or [{"_doc": {"order": "asc"}}]
                        if len(sort) != 1 or not isinstance(sort[0], dict):
                            raise ValueError(
                                f"top_hits supports one sort field: "
                                f"{sort!r}"
                            )
                        scol, sspec2 = next(iter(sort[0].items()))
                        order = (
                            sspec2.get("order", "asc")
                            if isinstance(sspec2, dict)
                            else str(sspec2)
                        )
                        p.setdefault("aggs_extra", []).append({
                            "name": name, "kind": "terms_top_hits",
                            "field": agg["terms"]["field"],
                            "size": int(agg["terms"].get("size", 10)),
                            "sub": subname,
                            "k": int(th.get("size", 3)),
                            "sort_col": scol,
                            "asc": order == "asc",
                        })
                        return
                    metric = next(
                        (k for k in ("stats", "avg", "sum", "min", "max")
                         if k in subspec),
                        None,
                    )
                    if metric is None:
                        raise ValueError(
                            f"terms sub-agg must be stats|avg|sum|min|"
                            f"max|top_hits: {subspec!r}"
                        )
                    p.setdefault("aggs_extra", []).append({
                        "name": name, "kind": "terms_stats",
                        "field": agg["terms"]["field"],
                        "val": subspec[metric]["field"],
                        "size": int(agg["terms"].get("size", 10)),
                        "sub": subname, "metric": metric,
                    })
                else:
                    p.setdefault("aggs_extra", []).append({
                        "name": name, "kind": "terms",
                        "field": agg["terms"]["field"],
                        "size": int(agg["terms"].get("size", 10)),
                    })
            elif "stats" in agg:
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "stats",
                    "field": agg["stats"]["field"],
                })
            elif "date_histogram" in agg:
                dh = agg["date_histogram"]
                from .query.dsl import _interval_seconds
                from .query.facets import _CALENDAR_UNITS

                iv = dh.get(
                    "fixed_interval",
                    dh.get("calendar_interval", dh.get("interval")),
                )
                # calendar intervals (week/month/quarter/year — plus
                # the 1-suffixed OpenSearch spellings) bucket by civil
                # date_trunc, not epoch division.  The calendar route
                # applies ONLY to `calendar_interval` specs: a
                # `fixed_interval` of "1w"/"week" keeps the epoch-
                # division 604800 s weeks (OpenSearch fixed semantics).
                arg = None
                if "fixed_interval" not in dh and "calendar_interval" in dh:
                    iv_cal = {
                        "1w": "week", "1M": "month",
                        "1q": "quarter", "1y": "year",
                    }.get(str(iv), str(iv))
                    if iv_cal in _CALENDAR_UNITS:
                        arg = iv_cal
                entry = {
                    "name": name, "kind": "date_histogram",
                    "field": dh["field"],
                    "arg": arg if arg is not None else _interval_seconds(iv),
                }
                sub = agg.get("aggs") or agg.get("aggregations")
                if sub:
                    # date_histogram with a sum metric + parent
                    # pipeline aggregations (OpenSearch nests the
                    # pipelines beside the metric): exactly one
                    # {"sum": {"field": v}} metric; pipelines
                    # reference it by buckets_path
                    metric = None
                    pipes = []
                    for sname, sspec in sub.items():
                        if "sum" in sspec:
                            if metric is not None:
                                raise ValueError(
                                    "one sum metric per date_histogram"
                                )
                            metric = (sname, sspec["sum"]["field"])
                        elif any(
                            k in sspec
                            for k in ("cumulative_sum", "derivative",
                                      "serial_diff", "moving_fn")
                        ):
                            # the MATCHED pipeline key, not the first
                            # dict key (bodies may carry "meta" etc.)
                            pkind = next(
                                k
                                for k in ("cumulative_sum", "derivative",
                                          "serial_diff", "moving_fn")
                                if k in sspec
                            )
                            body = sspec[pkind]
                            if pkind == "moving_fn":
                                script = str(body.get("script", ""))
                                if "unweightedAvg" not in script:
                                    raise ValueError(
                                        "moving_fn supports only the "
                                        "MovingFunctions.unweightedAvg "
                                        f"script: {script!r}"
                                    )
                            pipes.append({
                                "name": sname, "kind": pkind,
                                "path": str(body.get("buckets_path", "")),
                                "lag": int(body.get("lag", 1)),
                                "window": int(body.get("window", 3)),
                            })
                        else:
                            raise ValueError(
                                f"date_histogram sub-agg must be sum|"
                                f"cumulative_sum|derivative|serial_diff"
                                f"|moving_fn: {sspec!r}"
                            )
                    if metric is None:
                        raise ValueError(
                            "date_histogram pipelines need a sum metric"
                        )
                    for pp in pipes:
                        if pp["path"] != metric[0]:
                            raise ValueError(
                                f"buckets_path {pp['path']!r} does not "
                                f"name the sum metric {metric[0]!r}"
                            )
                    entry.update({
                        "kind": "date_histogram_metric",
                        "sub": metric[0], "val": metric[1],
                        "pipes": pipes,
                    })
                p.setdefault("aggs_extra", []).append(entry)
            elif "histogram" in agg:
                entry = {
                    "name": name, "kind": "histogram",
                    "field": agg["histogram"]["field"],
                    "arg": int(agg["histogram"]["interval"]),
                }
                hsub = agg.get("aggs") or agg.get("aggregations")
                if hsub:
                    # numeric-histogram parent + ONE sum metric (the
                    # pipeline machinery is the date_histogram path)
                    if len(hsub) != 1:
                        raise ValueError("one sub-aggregation supported")
                    hname, hspec = next(iter(hsub.items()))
                    if "sum" not in hspec:
                        raise ValueError(
                            f"histogram sub-agg must be sum: {hspec!r}"
                        )
                    entry.update({
                        "kind": "histogram_metric",
                        "sub": hname, "val": hspec["sum"]["field"],
                    })
                p.setdefault("aggs_extra", []).append(entry)
            elif "missing" in agg:
                # matched docs with NO value in the field: the
                # request's match count minus the |q ∧ exists| count
                # leg of the same query phase
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "missing",
                    "field": agg["missing"]["field"],
                })
            elif "value_count" in agg:
                # docs with a value: the |q ∧ exists| count leg
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "value_count",
                    "field": agg["value_count"]["field"],
                })
            elif "rare_terms" in agg:
                rt = agg["rare_terms"]
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "rare_terms",
                    "field": rt["field"],
                    "max_doc_count": int(rt.get("max_doc_count", 1)),
                })
            elif "adjacency_matrix" in agg:
                am = agg["adjacency_matrix"]
                named = am.get("filters")
                if not isinstance(named, dict) or not named:
                    raise ValueError(
                        "adjacency_matrix expects {'filters': "
                        f"{{name: <DSL>, …}}}}: {am!r}"
                    )
                if len(named) > 8:
                    raise ValueError(
                        "adjacency_matrix supports at most 8 filters "
                        "(the intersection legs grow quadratically)"
                    )
                for sub in named.values():
                    if not isinstance(sub, dict):
                        raise ValueError(
                            f"adjacency_matrix filter must be a DSL "
                            f"object: {sub!r}"
                        )
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "adjacency_matrix", "field": "",
                    "filters": named,
                    "separator": str(am.get("separator", "&")),
                })
            elif "composite" in agg:
                comp = agg["composite"]
                sources = comp.get("sources")
                if (
                    not isinstance(sources, list)
                    or len(sources) != 1
                    or not isinstance(sources[0], dict)
                    or len(sources[0]) != 1
                ):
                    raise ValueError(
                        "composite supports exactly one terms source: "
                        f"{sources!r}"
                    )
                sname, sspec = next(iter(sources[0].items()))
                if "terms" not in sspec:
                    raise ValueError(
                        f"composite source must be terms: {sspec!r}"
                    )
                after = comp.get("after")
                if after is not None and (
                    not isinstance(after, dict) or sname not in after
                ):
                    raise ValueError(
                        f"composite after must be {{{sname!r}: <key>}}: "
                        f"{after!r}"
                    )
                csize = int(comp.get("size", 10))
                if csize <= 0:
                    raise ValueError(
                        f"composite size must be > 0, got {csize}"
                    )
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "composite",
                    "field": sspec["terms"]["field"],
                    "size": csize,
                    "source": sname,
                    # keep after's NATIVE value: numeric sources must
                    # order/page numerically (str ordering puts "10" < "9")
                    "after": None if after is None else after[sname],
                })
            elif "date_range" in agg:
                import datetime as _dtc

                dr = agg["date_range"]

                def _edge_us(v, default):
                    if v is None:
                        return default
                    if isinstance(v, (int, float)):
                        return float(v) * 1000.0  # epoch millis → us
                    d = _dtc.datetime.fromisoformat(str(v))
                    if d.tzinfo is None:
                        # naive = UTC (the engine's timestamp contract);
                        # an EXPLICIT offset must convert, not be
                        # reinterpreted
                        d = d.replace(tzinfo=_dtc.timezone.utc)
                    return d.timestamp() * 1_000_000.0

                dranges = [
                    (
                        _edge_us(r.get("from"), float("-inf")),
                        _edge_us(r.get("to"), float("inf")),
                    )
                    for r in dr.get("ranges", [])
                ]
                if not dranges:
                    raise ValueError("date_range aggregation needs ranges")
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "date_range",
                    "field": dr["field"], "arg": dranges,
                })
            elif "range" in agg:
                rng = agg["range"]
                ranges = [
                    (float(r.get("from", "-inf")), float(r.get("to", "inf")))
                    for r in rng["ranges"]
                ]
                if not ranges:
                    raise ValueError("range aggregation needs ranges")
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "range",
                    "field": rng["field"], "arg": ranges,
                })
            elif "cardinality" in agg:
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "cardinality",
                    "field": agg["cardinality"]["field"],
                })
            elif "filters" in agg:
                # one |q ∧ filter| count leg per named sub-query, all
                # in the request's one query phase
                flt = agg["filters"]
                named = flt.get("filters") if isinstance(flt, dict) else None
                if not isinstance(named, dict) or not named:
                    raise ValueError(
                        f"filters agg expects {{'filters': {{name: "
                        f"<DSL>, …}}}}: {flt!r}"
                    )
                for sub in named.values():
                    if not isinstance(sub, dict):
                        raise ValueError(
                            f"filters agg sub-query must be a DSL "
                            f"object: {sub!r}"
                        )
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "filters", "field": "",
                    "filters": named,
                })
            elif "significant_terms" in agg:
                st = agg["significant_terms"]
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "significant_terms",
                    "field": st.get("field", ""),
                    "size": int(st.get("size", 10)),
                    "min_doc_count": int(st.get("min_doc_count", 1)),
                })
            elif "percentiles" in agg:
                pc_ = agg["percentiles"]
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "percentiles",
                    "field": pc_["field"],
                    "percents": pc_.get(
                        "percents", [1, 5, 25, 50, 75, 95, 99]
                    ),
                })
            elif "percentile_ranks" in agg:
                pr = agg["percentile_ranks"]
                vals = pr.get("values")
                if not isinstance(vals, list) or not vals:
                    raise ValueError(
                        f"percentile_ranks needs values: {pr!r}"
                    )
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "percentile_ranks",
                    "field": pr["field"],
                    "values": [float(v) for v in vals],
                })
            elif "extended_stats" in agg:
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "extended_stats",
                    "field": agg["extended_stats"]["field"],
                })
            elif any(
                k in agg
                for k in ("avg_bucket", "max_bucket", "min_bucket",
                          "sum_bucket", "stats_bucket",
                          "percentiles_bucket", "extended_stats_bucket")
            ):
                # SIBLING pipeline agg: one value computed from a
                # date_histogram parent's metric, addressed
                # "parent>metric" (OpenSearch buckets_path)
                skind = next(
                    k
                    for k in ("avg_bucket", "max_bucket", "min_bucket",
                              "sum_bucket", "stats_bucket",
                              "percentiles_bucket",
                              "extended_stats_bucket")
                    if k in agg
                )
                path = str(agg[skind].get("buckets_path", ""))
                if ">" not in path:
                    raise ValueError(
                        f"{skind} buckets_path must be 'parent>metric':"
                        f" {path!r}"
                    )
                parent, metric = path.split(">", 1)
                p.setdefault("aggs_extra", []).append({
                    "name": name, "kind": "sibling_bucket", "op": skind,
                    "parent": parent, "metric": metric, "field": "",
                    "percents": agg[skind].get(
                        "percents", [1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0]
                    ),
                })
            else:
                raise ValueError(
                    f"unsupported aggregation {agg!r} (terms|stats|"
                    "date_histogram|histogram|range|cardinality|"
                    "percentiles|significant_terms|filters|date_range|"
                    "avg_bucket|max_bucket|min_bucket|sum_bucket|"
                    "stats_bucket)"
                )

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
        processor restrictions); pagination is offset-only.  The fetch
        phase reads only the page's rows (row-group-pruned
        ``fetch_docs``)."""
        from .query.dsl import dsl_to_node
        from .query.hybrid import rrf_fuse
        from .query.search import assemble_hits

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
        svc, reader, analyzer = self._svc, self._reader, self._analyzer
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
        table = assemble_hits(
            reader, page, fields, None, None, 160, rank_start=from_ + 1,
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

    def _search(self, params) -> dict:
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
        # fail before any shard call
        specs, ops, idx = self._agg_plan(params, reader, analyzer)
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
            aggs = out["aggregations"] = {}
            # terms→top_hits needs the merged bucket keys before its
            # head-k partials: the one second query phase, shared by
            # every such agg of the request
            top_ops = [
                ("top_hits", spec["field"], spec["sort_col"], spec["k"],
                 spec["asc"], res[i[0]].slice(0, spec["size"])["value"].to_pylist())
                for spec, i in zip(specs, idx) if spec["kind"] == "terms_top_hits"
            ]
            top_hits = iter(
                svc.query_phase(q, syntax, ops=top_ops)[2] if top_ops else []
            )
            # siblings resolve against their parent's rendered buckets
            # — render every non-sibling first, independent of body
            # ordering (OpenSearch allows the sibling to appear first)
            for spec, i in zip(specs, idx):
                if spec["kind"] != "sibling_bucket":
                    got = [res[j] for j in i]
                    if spec["kind"] == "terms_top_hits":
                        got.append(next(top_hits))
                    aggs[spec["name"]] = self._extra_agg(
                        spec, got, total, reader
                    )
            for spec in specs:
                if spec["kind"] == "sibling_bucket":
                    aggs[spec["name"]] = self._sibling_bucket(spec, aggs)
        return out

    def _agg_plan(self, params, reader, analyzer) -> tuple[list, list, list]:
        """A request's aggregations as ONE list of distinct shard ops
        (``ShardQueryActor.query_phase``) → ``(specs, ops, idx)``: the GET
        shorthand's ``agg_terms``/``agg_stats`` slots plus the body's
        ``aggs_extra`` specs, in response order; ``idx[i]`` are the
        positions in ``ops`` of the results ``specs[i]`` renders from.
        Identical ops are computed once (percentiles and
        extended_stats share one value histogram; terms and
        rare_terms one terms count)."""
        specs = []
        if params.get("agg_terms"):
            col = params["agg_terms"]
            specs.append({"name": col, "kind": "terms", "field": col,
                          "size": int(params.get("agg_size", "10"))})
        if params.get("agg_stats"):
            col = params["agg_stats"]
            specs.append({"name": col, "kind": "stats", "field": col})
        specs += params.get("aggs_extra") or []
        ops, seen, idx = [], {}, []
        for spec in specs:
            mine = []
            for op in self._agg_ops(spec, reader, analyzer):
                key = repr(op)
                if key not in seen:
                    seen[key] = len(ops)
                    ops.append(op)
                mine.append(seen[key])
            idx.append(mine)
        return specs, ops, idx

    @staticmethod
    def _agg_ops(spec: dict, reader, analyzer) -> list:
        """The shard ops one aggregation renders from, in the order
        :meth:`_extra_agg` reads them.  Count legs (filters,
        adjacency_matrix, missing, value_count) are DSL objects,
        validated HERE — a malformed leg costs one parse and a clean
        400, never a shard round trip."""
        kind, col, arg = spec["kind"], spec["field"], spec.get("arg")
        if kind in ("terms", "rare_terms", "terms_top_hits"):
            return [("terms", col)]
        if kind == "stats":
            return [("stats", col)]
        if kind == "terms_stats":
            return [("terms_stats", col, spec["val"])]
        if kind in ("percentiles", "extended_stats", "percentile_ranks"):
            # the exact value histogram is numeric: a date or keyword
            # field is refused here, before any shard call
            import pyarrow.types as pt

            schema = reader._docs_dataset().schema
            typ = schema.field(col).type if col in schema.names else None
            if typ is not None and not (
                pt.is_integer(typ) or pt.is_floating(typ) or pt.is_decimal(typ)
            ):
                raise ValueError(
                    f"field [{col}] of type [{typ}] is not supported for "
                    f"aggregation [{kind}]"
                )
            return [("hist", col, "values", None)]
        if kind == "cardinality":
            return [("hist", col, "distinct", None)]
        if kind in ("histogram_metric", "date_histogram_metric"):
            return [("bucket_sums", col, kind.removesuffix("_metric"), arg,
                     spec["val"])]
        if kind == "composite":
            return [("composite", col, spec["after"], spec["size"])]
        if kind == "sibling_bucket":
            return []
        if kind == "significant_terms":
            # significance runs over the chain's postings, so the field
            # must be the build's indexed source field
            idx_field = reader.manifest["field"]
            if col and col != idx_field:
                raise ValueError(
                    f"significant_terms runs over the indexed field "
                    f"{idx_field!r}, not {col!r}"
                )
            return [("ids",)]
        if kind in ("missing", "value_count"):
            legs = [[{"exists": {"field": col}}]]
        elif kind == "filters":
            legs = [[sub] for sub in spec["filters"].values()]
        elif kind == "adjacency_matrix":
            legs = [fs for _, fs in _adjacency_legs(spec)]
        else:  # date_histogram / histogram / range / date_range
            return [("hist", col, kind, arg)]
        from .query.dsl import dsl_to_node

        for fs in legs:
            for dsl in fs:
                dsl_to_node(dsl, analyzer)
        return [("count", tuple(fs)) for fs in legs]

    @staticmethod
    def _sibling_bucket(spec: dict, aggs: dict) -> dict:
        """One sibling pipeline value from a rendered date_histogram
        parent: ``buckets_path`` = ``parent>metric``.  O(n_buckets),
        driver-side — exactly where OpenSearch runs sibling aggs."""
        parent = aggs.get(spec["parent"])
        if parent is None or "buckets" not in parent:
            raise ValueError(
                f"buckets_path parent {spec['parent']!r} is not a "
                "bucket aggregation in this request"
            )
        vals, keys = [], []
        seen_metric = False
        for b in parent["buckets"]:
            m = b.get(spec["metric"])
            if not isinstance(m, dict) or "value" not in m:
                # a pipeline metric (derivative/serial_diff) is
                # legitimately absent in its first bucket(s) —
                # OpenSearch's skip gap policy: drop the bucket, keep
                # going
                continue
            seen_metric = True
            vals.append(m["value"])
            keys.append(b.get("key_as_string", b.get("key")))
        if parent["buckets"] and not seen_metric:
            raise ValueError(
                f"parent buckets carry no metric {spec['metric']!r}"
            )
        if not vals:
            return {"value": None}
        op = spec["op"]
        if op == "avg_bucket":
            return {"value": float(sum(vals)) / len(vals)}
        if op == "sum_bucket":
            return {"value": float(sum(vals))}
        if op == "min_bucket":
            mv = min(vals)
            return {
                "value": float(mv),
                "keys": [k for k, v in zip(keys, vals) if v == mv],
            }
        if op == "max_bucket":
            mv = max(vals)
            return {
                "value": float(mv),
                "keys": [k for k, v in zip(keys, vals) if v == mv],
            }
        if op == "percentiles_bucket":
            # quantile_cont over the bucket metric values — the same
            # interpolation rule as the percentiles facet
            import numpy as _np

            from .query.facets import interpolate_quantiles

            v = _np.sort(_np.asarray(vals, _np.float64))
            uq, cnt = _np.unique(v, return_counts=True)
            qs = [float(x) for x in spec["percents"]]
            out = interpolate_quantiles(uq, cnt.astype(_np.int64), qs)
            return {"values": {f"{q}": o for q, o in zip(qs, out)}}
        if op == "extended_stats_bucket":
            return _extended_stats(
                len(vals), float(min(vals)), float(max(vals)),
                float(sum(vals)), float(sum(x * x for x in vals)),
            )
        # stats_bucket
        return {
            "count": len(vals),
            "min": float(min(vals)),
            "max": float(max(vals)),
            "sum": float(sum(vals)),
            "avg": float(sum(vals)) / len(vals),
        }

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

    @staticmethod
    def _terms_agg(t, size: int) -> dict:
        return {"buckets": [
            {"key": r["value"], "doc_count": r["n_docs"]}
            for r in t.slice(0, size).to_pylist()
        ]}

    @staticmethod
    def _stats_agg(t) -> dict:
        r = t.to_pylist()[0]
        return {
            "count": r["n_docs"], "min": r["min_v"], "max": r["max_v"],
            "sum": r["sum_v"], "avg": r["avg_v"],
        }

    def _extra_agg(self, spec: dict, got: list, n_matched: int, reader) -> dict:
        """One aggregation's OpenSearch rendering from the merged shard
        results it planned (``got``, in :meth:`_agg_ops` order, plus
        the second-round top hits of a terms→top_hits agg; ``n_matched``
        is the request's live match count).  No shard call happens here:
        the whole request's aggregations came from its one query-phase
        fan-out, so the in-process and fleet backends run the same
        code.  Response shapes follow OpenSearch: date buckets carry
        epoch-ms ``key`` + ISO ``key_as_string``, range buckets echo
        from/to, percentiles a ``values`` map."""
        import numpy as np

        from .query.facets import interpolate_quantiles

        kind, arg = spec["kind"], spec.get("arg")
        if kind == "filters":
            # one bucket per NAMED sub-query: |q ∧ f|
            return {"buckets": {
                bname: {"doc_count": n}
                for bname, n in zip(spec["filters"], got)
            }}
        if kind == "significant_terms":
            # JLH-significant terms of the query's match set
            # (query/significant.py — a per-partition postings scan,
            # one Ray task per segment partition: an ANALYTICS agg,
            # never a hot search path) over the snapshot reader; the
            # foreground set is the shards' match ids
            from .query.significant import significant_terms

            matched = got[0]
            t = significant_terms(
                reader, matched, k=spec["size"],
                min_doc_count=spec["min_doc_count"],
            )
            return {
                "doc_count": int(len(matched)),
                "buckets": [
                    {"key": r["term"], "doc_count": r["fg_df"],
                     "bg_count": r["bg_df"], "score": r["score"]}
                    for r in t.to_pylist()
                ],
            }
        if kind == "terms":
            # plain terms agg, per NAME (body requests may carry many)
            return self._terms_agg(got[0], spec["size"])
        if kind == "stats":
            return self._stats_agg(got[0])
        if kind == "terms_top_hits":
            # terms buckets + per-bucket top-k hits: ≤ k rows per
            # rendered bucket end-to-end
            t, th = got
            counts = {
                r["value"]: r["n_docs"]
                for r in t.slice(0, spec["size"]).to_pylist()
            }
            hits_by = {}
            for r in th.to_pylist():
                sv = r["s"]
                if hasattr(sv, "isoformat"):
                    sv = sv.isoformat()
                hits_by.setdefault(r["value"], []).append(
                    {"_id": str(r["doc_id"]), "sort": [sv]}
                )
            buckets = []
            for v in sorted(counts, key=lambda x: (-counts[x], x)):
                buckets.append({
                    "key": v,
                    "doc_count": counts[v],
                    spec["sub"]: {"hits": {
                        "total": {"value": counts[v], "relation": "eq"},
                        "hits": hits_by.get(v, []),
                    }},
                })
            return {"buckets": buckets}
        if kind == "terms_stats":
            # nested terms→stats: the shared exact fold
            metric = spec.get("metric", "stats")
            buckets = []
            for r in got[0].slice(0, spec["size"]).to_pylist():
                full = {
                    "count": r["n_docs"], "min": r["min_v"],
                    "max": r["max_v"], "sum": r["sum_v"],
                    "avg": r["avg_v"],
                }
                buckets.append({
                    "key": r["value"],
                    "doc_count": r["n_docs"],
                    spec["sub"]: (
                        full
                        if metric == "stats"
                        else {"value": full[metric]}  # single-metric agg
                    ),
                })
            return {"buckets": buckets}
        if kind in ("extended_stats", "percentile_ranks"):
            # both fold the SAME exact value-count histogram the
            # percentiles agg reads (one op per request)
            hist = got[0]
            v = hist["key"].to_numpy(zero_copy_only=False).astype(np.float64)
            c = hist["n_docs"].to_numpy(zero_copy_only=False).astype(np.int64)
            n = int(c.sum())
            if kind == "percentile_ranks":
                if n == 0:
                    return {"values": {f"{x}": None for x in spec["values"]}}
                cum = np.cumsum(c)
                out = {}
                for x in spec["values"]:
                    le = int(cum[np.searchsorted(v, float(x), "right") - 1]) \
                        if np.searchsorted(v, float(x), "right") else 0
                    out[f"{float(x)}"] = 100.0 * le / n
                return {"values": out}
            if n == 0:
                return {"count": 0}
            return _extended_stats(
                n, float(v.min()), float(v.max()),
                float((v * c).sum()), float((v * v * c).sum()),
            )
        if kind == "value_count":
            # docs carrying a value: |q ∧ exists|
            return {"value": got[0]}
        if kind == "missing":
            # |q| − |q ∧ exists(field)|
            return {"doc_count": n_matched - got[0]}
        if kind == "rare_terms":
            # long-tail terms: the terms count, tail-filtered and
            # re-sorted (count asc, value asc) on the key-scale table
            rows = [
                (r["value"], int(r["n_docs"]))
                for r in got[0].to_pylist()
                if int(r["n_docs"]) <= spec["max_doc_count"]
            ]
            rows.sort(key=lambda kv: (kv[1], kv[0]))
            return {"buckets": [
                {"key": v, "doc_count": n} for v, n in rows
            ]}
        if kind == "composite":
            # key-ordered bucket pages with after_key resumption over
            # ONE terms source — the export-a-big-facet agg.  BOUNDED
            # per page: each shard computes only the ``size`` smallest
            # matched keys after the cursor in the COLUMN's native
            # order (a near-unique key column costs O(size) per page,
            # never key-cardinality), and keys page/emit in the
            # column's native type — an int source pages 9 < 10, a
            # string source lexicographically.
            size_, t = spec["size"], got[0]
            if t is None or t.num_rows == 0:
                return {"buckets": []}
            vals = t["value"].to_pylist()
            ns = [int(x) for x in t["n_docs"].to_pylist()]
            page = list(zip(vals, ns))
            out = {"buckets": [
                {"key": {spec["source"]: v}, "doc_count": n}
                for v, n in page
            ]}
            # OpenSearch semantics: a FULL page carries after_key (the
            # client's next request may come back empty — that is the
            # terminal signal)
            if len(page) == size_:
                out["after_key"] = {spec["source"]: page[-1][0]}
            return out
        if kind == "adjacency_matrix":
            # one count per named filter + one per pairwise
            # intersection (q ∧ fa ∧ fb), zero-count buckets omitted
            buckets = [
                {"key": key, "doc_count": n}
                for (key, _), n in zip(_adjacency_legs(spec), got)
                if n > 0
            ]
            buckets.sort(key=lambda b: b["key"])
            return {"buckets": buckets}
        if kind == "histogram_metric":
            t = got[0]
            return {"buckets": [
                {
                    "key": float(k),
                    "doc_count": int(n),
                    spec["sub"]: {"value": float(s)},
                }
                for k, n, s in zip(
                    t["key"].to_pylist(), t["n"].to_pylist(),
                    t["sm"].to_pylist(),
                )
            ]}
        if kind == "date_histogram_metric":
            # histogram parent + sum metric + parent pipelines: every
            # pipeline function is an O(n_buckets) coordinator pass
            # (OpenSearch's own reduce-side placement)
            t = got[0]
            calendar = not _is_fixed_iv(arg)
            ks = t["key"].to_pylist()
            ns = t["n"].to_pylist()
            sums = [float(s) for s in t["sm"].to_pylist()]
            cums = np.cumsum(sums)
            buckets = []
            for i, (k, n, s) in enumerate(zip(ks, ns, sums)):
                b = {
                    **_date_bucket_key(k, arg, calendar),
                    "doc_count": int(n),
                    spec["sub"]: {"value": s},
                }
                for pp in spec["pipes"]:
                    if pp["kind"] == "cumulative_sum":
                        b[pp["name"]] = {"value": float(cums[i])}
                    elif pp["kind"] == "derivative":
                        if i >= 1:
                            b[pp["name"]] = {"value": sums[i] - sums[i - 1]}
                    elif pp["kind"] == "moving_fn":
                        # trailing window incl. current, partial heads
                        # (pipeline_aggs' moving_avg semantics)
                        w = max(1, pp["window"])
                        lo_i = max(0, i - w + 1)
                        b[pp["name"]] = {
                            "value": float(sum(sums[lo_i:i + 1]))
                            / (i - lo_i + 1)
                        }
                    else:  # serial_diff
                        lag = max(1, pp["lag"])
                        if i >= lag:
                            b[pp["name"]] = {"value": sums[i] - sums[i - lag]}
                buckets.append(b)
            return {"buckets": buckets}
        hist = got[0]
        if kind == "cardinality":
            return {"value": int(hist.num_rows)}
        if kind == "percentiles":
            qs = [float(x) for x in spec["percents"]]
            if hist.num_rows == 0:
                return {"values": {f"{x}": None for x in qs}}
            v = hist["key"].to_numpy(zero_copy_only=False)
            c = hist["n_docs"].to_numpy(zero_copy_only=False)
            out = interpolate_quantiles(v, np.asarray(c, np.int64), qs)
            return {"values": {f"{x}": val for x, val in zip(qs, out)}}
        if kind == "range":
            counts = dict(
                zip(hist["key"].to_pylist(), hist["n_docs"].to_pylist())
            )
            buckets = []
            for i, (lo, hi) in enumerate(arg):
                b = {"doc_count": int(counts.get(i, 0))}
                if lo != float("-inf"):
                    b["from"] = lo
                if hi != float("inf"):
                    b["to"] = hi
                buckets.append(b)
            return {"buckets": buckets}
        if kind == "date_range":
            import datetime as _dt

            counts = dict(
                zip(hist["key"].to_pylist(), hist["n_docs"].to_pylist())
            )
            buckets = []
            epoch0 = _dt.datetime(1970, 1, 1)
            for i, (lo, hi) in enumerate(arg):
                b = {"doc_count": int(counts.get(i, 0))}
                if lo != float("-inf"):
                    b["from"] = int(lo) // 1000  # epoch millis
                    # exact micro-second ISO echo (no float detour, no
                    # whole-second truncation of sub-second bounds)
                    b["from_as_string"] = (
                        epoch0 + _dt.timedelta(microseconds=int(lo))
                    ).isoformat()
                if hi != float("inf"):
                    b["to"] = int(hi) // 1000
                    b["to_as_string"] = (
                        epoch0 + _dt.timedelta(microseconds=int(hi))
                    ).isoformat()
                buckets.append(b)
            return {"buckets": buckets}
        if kind == "date_histogram":
            calendar = not _is_fixed_iv(arg)
            return {"buckets": [
                {**_date_bucket_key(k, arg, calendar), "doc_count": int(n)}
                for k, n in zip(hist["key"].to_pylist(), hist["n_docs"].to_pylist())
            ]}
        # histogram: lower-edge keys
        return {"buckets": [
            {"key": float(k), "doc_count": int(n)}
            for k, n in zip(hist["key"].to_pylist(), hist["n_docs"].to_pylist())
        ]}

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
