"""Query serving tier: one shard protocol, served in-process or by Ray actors.

The reference serves queries from OpenSearch (a long-lived process
with loaded segment state); the rebuild's equivalent is a fleet of
doc-id RANGE shards, each loading an :class:`IndexReader` ONCE
(term dictionary, norms slice, postings cache, file handles) and
answering queries from warm state — the actor-pool rule for stateful
stages applied to the read path (SURVEY §7 step 7).

* :class:`ShardQueryActor` — one shard over ``[lo, hi)``: its norms
  slice + range-limited posting decode (``IndexReader(doc_range=…)``).
  It serves three verbs: ``ping``, ``query_phase`` and
  ``fetch_partial``.  A ``_search`` is OpenSearch's query-then-fetch:
  :meth:`ShardQueryActor.query_phase` evaluates the query's live match
  set ONCE (:func:`live_matches`) and returns this shard's ranked page
  (plain text through the one BM25 top-k planner, ``bm25.topk``), its
  match count and every aggregation partial of the request from it —
  the column aggregations through ``facets.op_partial``, the engine's
  one set of aggregation kernels (the Dataset facets run the same
  kernels per docs-store block); ``fetch_partial`` then reads the
  stored fields of the hits the shard owns.  Phrase matches and
  filtered relevance are DSL bodies of the same query phase
  (``match_phrase`` with an ``("ids",)`` op, a ``bool`` with a
  ``filter``).
* :class:`ShardedQueryService` — the coordinator: fans each call out
  to one replica per shard and merges.  BM25 scores are globally
  comparable because N/avgdl/df are global statistics, so every
  cross-shard merge is **exact** (tested ≡ the unsharded library
  functions).  Each shard pays O(n_docs / n_shards) and shards score
  in parallel.  :meth:`ShardedQueryService.query_phase` is one
  fan-out (page merge, count sum, ``facets.merge_partials`` per op) and
  :meth:`ShardedQueryService.fetch_phase` routes each hit to its
  owning shard; ``_search``, ``_count``, :meth:`topk`,
  :meth:`query_string` and :meth:`search` are built from those two.

The same service runs two ways: ``ShardedQueryService(root,
n_shards=…)`` spawns Ray actors, and
:meth:`ShardedQueryService.in_process` wraps an already-open reader as
ONE in-process shard over ``[0, n_docs)`` — the reference's
``number_of_shards: 1`` index, and the REST server's local backend.
Only the service's dispatch knows which kind of shard it talks to: the
posting primitives below (``phrase``, ``extents``, ``qstring``,
``facets.match_doc_ids``) each read ``[reader.doc_lo,
reader.doc_hi)``, and on a full reader that range is the whole index.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ShardQueryActor", "ShardedQueryService", "live_matches", "page_rank"]


class ShardQueryActor:
    """One doc-range shard: norms slice + range-limited posting decode,
    loaded once.  Its pages are exact over its range (global statistics
    → globally comparable scores), so the coordinator's merges are
    exact."""

    def __init__(self, index_root: str, lo: int, hi: int, chain: str | None = None):
        from .reader import IndexReader

        self._attach(IndexReader(index_root, chain=chain, doc_range=(lo, hi)))

    @classmethod
    def over(cls, reader) -> "ShardQueryActor":
        """A shard over an already-open reader's doc range — no second
        reader is opened (a full reader is the one shard ``[0,
        n_docs)``)."""
        self = cls.__new__(cls)
        self._attach(reader)
        return self

    def _attach(self, reader) -> None:
        from .sortq import live_mask

        self.reader = reader
        self.analyzer = reader.analyzer
        # soft deletes: each shard holds only ITS range's live mask
        # (None when no tombstone falls in it — the common case)
        self._live = live_mask(reader)

    def ping(self) -> tuple[int, int]:
        """Liveness probe (``ShardedQueryService.revive``): this
        shard's ``(doc_lo, doc_hi)`` — no reader work."""
        return (int(self.reader.doc_lo), int(self.reader.doc_hi))

    def query_phase(
        self,
        query,
        syntax: bool = False,
        default_operator: str = "or",
        rank: tuple | None = None,
        ops: list = (),
    ) -> tuple:
        """OpenSearch's query phase, shard-local: ONE evaluation of the
        query's live match set (:func:`live_matches`) serves this
        shard's ranked page, its match count and every aggregation
        partial of the request → ``(page, n_matched, [partial per
        op])``.  ``n_matched`` is the FULL live match count whatever
        the page cursor (OpenSearch ``hits.total``).

        ``rank`` — the page, or ``None`` for count and aggregations
        only:

        * ``("score", k, after)`` → this shard's top-k ``(doc_id,
          score)`` under a ``(score, doc_id)`` cursor.  With
          ``syntax`` the quantized ranking of the match set's own
          scores; plain text runs the ``bm25.topk`` planner (WAND or
          dense TAAT) over the shard's range.
        * ``("field", col, desc, n, after)`` → the top-``n``
          ``(doc_id, key)`` table in field order
          (``sortq.sort_rows_range`` over the matched offsets).

        ``ops`` — each is a column op of ``facets.op_partial``
        (``terms``, ``stats``, ``hist``, ``bucket_sums``,
        ``composite``, ``terms_stats``, ``top_hits`` — the kernels the
        Dataset facets run per block), computed over each stored
        column's shard slice (the memoized ``reader.stored_column`` —
        one docs-store scan per column per actor lifetime) ``take``n
        once over the match set, or one of the query ops:

        * ``("count", legs)`` → ``|match ∧ leg₁ ∧ …|`` for a tuple of
          DSL objects (a leg that analyzes away constrains nothing);
          each distinct leg is evaluated once per call.
        * ``("ids",)`` → the matched GLOBAL doc ids.

        Every partial is distinct-key-scale (never doc-scale, except
        ``ids``) and merges exactly across disjoint doc ranges
        (``facets.merge_partials``)."""
        import pyarrow as pa

        scores, matched = live_matches(
            self.reader, query, self._live, syntax, default_operator
        )
        if rank is None:
            page = None
        elif rank[0] == "field":
            from .sortq import sort_rows_range

            _, col_name, desc, n, after = rank
            page = sort_rows_range(
                self.reader, matched, col_name, desc=desc, n=n, after=after
            )
        elif not syntax:
            from .bm25 import topk

            page = topk(self.reader, self.analyzer(query), rank[1], after=rank[2])
        else:
            from .bm25 import rank_top_quantized

            _, k, after = rank
            lo = self.reader.doc_lo
            page = [
                (d + lo, s)
                for d, s in rank_top_quantized(
                    scores, matched[scores[matched] > 0.0], k,
                    after=after, id_offset=lo,
                )
            ]
        taken: dict = {}
        legs: dict = {}

        def col(name):
            if name not in taken:
                taken[name] = self.reader.stored_column(name).take(
                    pa.array(matched)
                )
            return taken[name]

        def leg(dsl):
            key = repr(dsl)
            if key not in legs:
                from .dsl import dsl_to_node
                from .qstring import _eval_range

                node = dsl_to_node(dsl, self.analyzer)
                legs[key] = (
                    None if node is None else _eval_range(self.reader, node)[1]
                )
            return legs[key]

        return page, len(matched), [
            self._partial(op, matched, col, leg) for op in ops
        ]

    def _partial(self, op, matched: np.ndarray, col, leg):
        """One :meth:`query_phase` op over the shared match set: the
        query ops here, every column op through ``facets.op_partial``."""
        if op[0] == "count":
            sel = np.ones(len(matched), bool)
            for dsl in op[1]:
                mask = leg(dsl)
                if mask is not None:
                    sel &= mask[matched]
            return int(np.count_nonzero(sel))
        if op[0] == "ids":
            return matched + np.int64(self.reader.doc_lo)
        from .facets import op_partial

        if op[0] in ("terms", "stats") and not len(matched):
            # terms and stats never read their column for an empty match
            import pyarrow as pa

            return op_partial(op, lambda _: pa.array([], pa.string()))
        return op_partial(op, col)

    def fetch_partial(
        self,
        doc_ids: list[int],
        fields: tuple[str, ...],
        query: str | None = None,
        highlight_field: str | None = None,
        width: int = 160,
        syntax: bool = False,
        hl_tags: tuple = ("<em>", "</em>"),
    ):
        """OpenSearch's FETCH phase, shard-local: stored fields (+ the
        densest highlighted snippet) for hits this shard OWNS —
        document bodies never leave the shard; only the assembled rows
        travel.  ``query`` (analyzed with this shard's chain — or with
        ``syntax=True`` parsed as query_string and reduced to its
        POSITIVE terms) drives the snippet term set."""
        from .search import fetch_rows

        terms = None
        if highlight_field is not None:
            if syntax:
                from .qstring import parse_query_string, positive_terms

                terms = positive_terms(
                    parse_query_string(query or "", self.analyzer)
                )
            else:
                terms = set(self.analyzer(query or ""))
        return fetch_rows(
            self.reader, doc_ids, fields, highlight_field, terms, width,
            *hl_tags,
        )


class ShardedQueryService:
    """Doc-range-sharded serving: ``n_shards`` shards each hold one
    contiguous doc-id range; a query fans out to every shard and the
    per-shard top-k lists merge exactly (score desc, doc asc).

    Scale: shard count ⇒ per-query latency ∝ n_docs / n_shards (the
    dense-TAAT floor divides by the fleet) and per-actor memory holds
    only a norms slice.  On a multi-node cluster Ray spreads the
    actors; the merge is O(n_shards · k) on the caller.

    ``num_cpus`` defaults to 0.25 so a shard fleet larger than the
    node's CPU count still schedules (actors are mostly idle between
    queries; an unschedulable actor would deadlock every ``ray.get``).
    On a dedicated serving cluster pass ``num_cpus=1`` to pin one core
    per shard.  :meth:`in_process` builds the one-shard, actor-free
    variant over an open reader."""

    def __init__(
        self,
        index_root: str,
        n_shards: int = 4,
        chain: str | None = None,
        num_cpus: float = 0.25,
        n_replicas: int = 1,
    ):
        import ray

        from ..index import manifest as mf

        # resolve the build ONCE and pin every actor (initial and
        # revived) to it: a publish between construction and a later
        # revive() must never mix two builds' doc-id ranges in one
        # fleet (the bounds below are THIS build's n_docs)
        bdir = mf.current_build(index_root) or index_root
        n_docs = int(mf.read_manifest(bdir)["n_docs"])
        n_shards = max(1, min(n_shards, max(1, n_docs)))
        bounds = np.linspace(0, n_docs, n_shards + 1).astype(np.int64)
        actor_cls = ray.remote(num_cpus=num_cpus)(ShardQueryActor)
        self._bounds = bounds
        self.remote = True
        index_root = bdir
        # n_replicas > 1 is OpenSearch's primary+replica read scaling:
        # a Ray actor serves ONE request at a time, so concurrent
        # queries otherwise queue behind each shard — every fan-out
        # picks one replica per doc range, round-robin
        self._groups = [
            [
                actor_cls.remote(
                    index_root, int(bounds[i]), int(bounds[i + 1]), chain
                )
                for _ in range(max(1, n_replicas))
            ]
            for i in range(n_shards)
        ]
        self._rr = 0
        # revive() re-creates dead replicas from this recipe
        self._spawn = lambda i: actor_cls.remote(
            index_root, int(bounds[i]), int(bounds[i + 1]), chain
        )

    @classmethod
    def in_process(cls, reader) -> "ShardedQueryService":
        """ONE in-process shard over an open reader's doc range — the
        single-shard index the reference serves from, with no actor and
        no second reader: every partial is a plain call on ``reader``
        and the merges are the fleet's own.  ``revive()`` replaces
        nothing and ``shutdown()`` releases nothing."""
        self = cls.__new__(cls)
        self._bounds = np.array([reader.doc_lo, reader.doc_hi], np.int64)
        self.remote = False
        self._groups = [[ShardQueryActor.over(reader)]]
        self._rr = 0
        return self

    @property
    def n_shards(self) -> int:
        return len(self._groups)

    @property
    def _actors(self):
        """One replica per doc-range shard, rotated per access — every
        fan-out transparently load-balances across replicas.  The
        lock-free counter bump is intentionally racy: it only
        influences replica CHOICE, never correctness (replicas are
        identical readers)."""
        self._rr += 1
        r = self._rr
        return [g[r % len(g)] for g in self._groups]

    def _gather(self, calls: list) -> list:
        """Run ``[(shard, method, args), …]`` and return the results in
        order — the ONE place that knows whether a shard is a Ray actor
        (all calls submitted, then one ``ray.get``) or an in-process
        object (plain calls).  A shard's own error re-raises as itself;
        a dead actor's ``RayActorError`` passes unchanged."""
        if not self.remote:
            return [getattr(a, op)(*args) for a, op, args in calls]
        import ray

        try:
            return ray.get([getattr(a, op).remote(*args) for a, op, args in calls])
        except ray.exceptions.RayTaskError as e:
            raise e.cause from e

    def _fan(self, op: str, *args) -> list:
        """``op(*args)`` on one replica of every shard, in shard order."""
        return self._gather([(a, op, args) for a in self._actors])

    def revive(self, timeout_s: float = 5.0) -> int:
        """Replace CONFIRMED-DEAD shard replicas (node loss, OOM-kill,
        explicit ``ray.kill``) with fresh actors over the SAME pinned
        build — the operational recovery path: a query that hits a
        dead actor raises ``RayActorError`` LOUDLY (never silently
        partial — a missing shard would mean silently missing doc
        ranges); the operator (or the REST layer's one-retry
        self-heal) calls ``revive()`` and retries.

        All replicas are pinged CONCURRENTLY and waited once under a
        single deadline (a partitioned fleet stalls ~``timeout_s``
        total, not per-actor).  Only a ping that FAILS with
        ``RayActorError`` marks a replica dead — Ray errors a dead
        actor's calls promptly, while a ping that merely hasn't
        answered is an actor BUSY with in-flight work and must not be
        replaced (dropping the live handle would kill its running
        query).  A hung-but-alive actor is therefore left alone: busy
        and hung are indistinguishable from outside; escalate with
        ``shutdown()`` + a fresh service.  Returns the number of
        replicas replaced (always 0 in-process)."""
        if not self.remote:
            return 0
        import ray

        probes = [
            (i, j, actor.ping.remote())
            for i, group in enumerate(self._groups)
            for j, actor in enumerate(group)
        ]
        ray.wait([r for _, _, r in probes],
                 num_returns=len(probes), timeout=timeout_s)
        replaced = 0
        for i, j, ref in probes:
            try:
                ray.get(ref, timeout=0.001)
            except ray.exceptions.GetTimeoutError:
                continue  # busy, not dead
            except ray.exceptions.RayActorError:
                self._groups[i][j] = self._spawn(i)
                replaced += 1
        return replaced

    def topk(
        self,
        query: str,
        k: int = 10,
        after: tuple[float, int] | None = None,
    ) -> list[tuple[int, float]]:
        """Plain-text BM25 top-k on the fleet: the query phase's
        relevance page, each shard ranked by ``bm25.topk`` over its
        doc range (so the merge equals the full reader's ``topk``)."""
        return self.query_phase(query, False, "or", ("score", k, after))[0]

    def query_string(
        self,
        qs: str,
        k: int = 10,
        default_operator: str = "or",
        after: tuple[float, int] | None = None,
    ) -> list[tuple[int, float]]:
        """The full ``query_string`` language on the fleet
        (``query/qstring.py``): each shard parses + evaluates over its
        doc range only (range-limited posting/positional decode —
        O(its share) per leaf), and the quantized per-shard top-k
        lists merge exactly, the same division the plain BM25 tier
        gets.  Pinned identical to the local
        ``query_string_topk``."""
        return self.query_phase(
            qs, True, default_operator, ("score", k, after)
        )[0]

    def query_phase(
        self,
        query,
        syntax: bool = False,
        default_operator: str = "or",
        rank: tuple | None = None,
        ops=(),
    ) -> tuple:
        """OpenSearch's query phase on the fleet in ONE fan-out: each
        shard evaluates the query once and returns its page, its live
        match count and every op's partial
        (:meth:`ShardQueryActor.query_phase`, which lists the ``rank``
        and op forms) → ``(page, n_matched, [merged result per op])``.
        The page merges exactly (``("score", k, after)``: score desc,
        doc asc → ``[(doc_id, score)]``; ``("field", col, desc, n,
        after)``: the re-sort of :func:`sortq.merge_sorted_pages` →
        a ``(doc_id, key)`` table); ``None`` without ``rank``.  With
        no rank and no ops this is OpenSearch ``_count``: match-any
        over the analyzed terms, or the full query_string/DSL
        semantics with ``syntax=True``."""
        ops = list(ops)
        parts = self._fan(
            "query_phase", query, syntax, default_operator, rank, ops
        )
        pages = [p[0] for p in parts]
        if rank is None:
            page = None
        elif rank[0] == "score":
            from .bm25 import merge_shard_topk

            page = merge_shard_topk(pages, rank[1])
        else:
            from .sortq import merge_sorted_pages

            page = merge_sorted_pages(pages, rank[3], rank[2])
        from .facets import merge_partials

        return page, int(sum(p[1] for p in parts)), [
            merge_partials(op, [p[2][i] for p in parts])
            for i, op in enumerate(ops)
        ]

    def search(
        self,
        query: str,
        k: int = 10,
        fields: tuple[str, ...] = ("url", "title"),
        highlight_field: str | None = None,
        width: int = 160,
        syntax: bool = False,
        default_operator: str = "or",
        from_: int = 0,
        after: tuple | None = None,
        sort: tuple[str, str] | None = None,
        hl_tags: tuple = ("<em>", "</em>"),
    ):
        """OpenSearch two-phase QUERY-THEN-FETCH on the fleet:
        :meth:`query_phase` ranks the page (plain match, the full
        ``query_string`` language with ``syntax=True``, or a field
        ``sort``), then :meth:`fetch_phase` reads each hit from the
        shard that OWNS its doc range.  Returns the assembled response
        table ``(rank, doc_id, score, *fields[, snippet][,
        sort_key])``; on one in-process shard this is
        :func:`query.search.search_response`.  Paging follows
        :func:`page_rank`."""
        page = self.query_phase(
            query, syntax, default_operator, page_rank(k, from_, after, sort)
        )[0]
        return self.fetch_phase(
            page[from_:], query, fields, highlight_field, width, syntax,
            rank_start=from_ + 1, hl_tags=hl_tags,
        )

    def fetch_phase(
        self,
        page,
        query,
        fields: tuple[str, ...],
        highlight_field: str | None,
        width: int,
        syntax: bool,
        rank_start: int = 1,
        hl_tags: tuple = ("<em>", "</em>"),
    ):
        """OpenSearch's fetch phase for a :meth:`query_phase` page:
        each hit's stored fields (+ highlighted snippet) are read by
        the shard that owns it, the shards serving their hits
        concurrently → ``(rank, doc_id, score, *fields[, snippet])``
        in page order.  A field-sorted page (a ``(doc_id, key)``
        table) scores 0.0 (OpenSearch reports ``_score: null`` when
        sorting by field) and carries its keys in a ``sort_key``
        column — the per-hit ``sort`` values of a ``search_after``
        cursor."""
        import pyarrow as pa

        keys = None
        if isinstance(page, pa.Table):
            keys = page["key"].combine_chunks()
            page = [(int(d), 0.0) for d in page["doc_id"].to_pylist()]
        # route hits to owning shards (bounds are sorted, right-open);
        # an empty page still takes a zero-row fetch through shard 0 so
        # it keeps the STORE's column types (as search.fetch_rows does)
        per_shard: dict[int, list[int]] = {} if page else {0: []}
        for d, _ in page:
            s = int(np.searchsorted(self._bounds, d, side="right")) - 1
            per_shard.setdefault(s, []).append(d)
        actors = self._actors
        parts = self._gather([
            (
                actors[s], "fetch_partial",
                (ids, tuple(fields), query, highlight_field, width, syntax,
                 hl_tags),
            )
            for s, ids in per_shard.items()
        ])
        fetched = pa.concat_tables(parts, promote_options="default")
        row_of = {int(i): r for r, i in enumerate(fetched["doc_id"].to_pylist())}
        fetched = fetched.take(
            pa.array([row_of[int(d)] for d, _ in page], pa.int64())
        )
        cols: dict[str, pa.Array] = {
            "rank": pa.array(
                np.arange(rank_start, rank_start + len(page), dtype=np.int64)
            ),
            "doc_id": pa.array([int(d) for d, _ in page], pa.int64()),
            "score": pa.array([float(s) for _, s in page], pa.float64()),
        }
        for f in list(fields) + (["snippet"] if highlight_field else []):
            cols[f] = fetched[f].combine_chunks()
        if keys is not None:
            cols["sort_key"] = keys
        return pa.table(cols)

    def shutdown(self) -> None:
        if not self.remote:
            return  # in-process: no actors to release
        import ray

        for group in self._groups:
            for a in group:
                ray.kill(a)
        self._groups = []


def live_matches(
    reader,
    query,
    live: np.ndarray | None,
    syntax: bool = False,
    default_operator: str = "or",
) -> tuple[np.ndarray | None, np.ndarray]:
    """The query's live match set over the reader's doc range →
    ``(scores, matched)``: ``matched`` are the sorted doc offsets
    WITHIN the range (position ``i`` is doc ``doc_lo + i``) that match
    and are live under the shard-local tombstone mask ``live``
    (``sortq.live_mask(reader)``: ``None`` when no tombstone falls in
    the range).

    Match-any (OR) over the analyzed terms by default
    (``facets.match_doc_ids`` over the reader's range; ``scores`` is
    ``None``), or the full query_string / DSL language with
    ``syntax=True`` — one range evaluation, whose dense ``scores`` the
    query phase ranks.  The ONE match-set builder of the serving tier:
    the query phase ranks, field-sorts, counts and aggregates this one
    set."""
    if syntax:
        from .qstring import _eval_range, parse_query_string

        node = parse_query_string(query, reader.analyzer, default_operator)
        scores, match = _eval_range(reader, node)
        matched = np.flatnonzero(match)
    else:
        from .facets import match_doc_ids

        scores = None
        matched = match_doc_ids(reader, reader.analyzer(query)) - reader.doc_lo
    if live is not None:
        matched = matched[live[matched]]
    return scores, matched


def page_rank(
    k: int,
    from_: int = 0,
    after: tuple | None = None,
    sort: tuple[str, str] | None = None,
) -> tuple:
    """The query-phase ``rank`` of a ``k``-hit page: relevance
    ``("score", from_ + k, after)``, or ``("field", col, desc, from_ +
    k, after)`` for ``sort=(col, "asc"|"desc")``; the caller slices
    the merged page at ``from_``.  ``from_`` is offset paging (each
    shard ranks ``from_ + k`` — cost grows with the offset, OpenSearch
    ``from``/``size``); ``after`` is the stateless ``search_after``
    cursor — ``(score, doc_id)``, or ``(key, doc_id)`` in field order
    — with which each shard ranks only ``k`` (constant cost per page,
    the deep-pagination path).  Mutually exclusive, like OpenSearch."""
    if from_ and after is not None:
        raise ValueError("from_ and after are mutually exclusive "
                         "(OpenSearch search_after requires from=0)")
    if sort is None:
        return ("score", from_ + k, after)
    col, order = sort
    return ("field", col, order == "desc", from_ + k, after)
