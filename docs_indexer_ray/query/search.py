"""Search-response assembly — OpenSearch's two-phase query-then-fetch.

The reference's consumers never see raw ``(doc_id, score)`` pairs:
OpenSearch answers ``_search`` with assembled hits — rank, score,
``_source`` stored fields and a highlight snippet per hit (the docs
site renders url/title/breadcrumb + snippet from exactly that shape;
``/root/reference/hugo.py`` feeds ``uri``/``title``/``body`` for this
purpose).  This module rebuilds the response surface on the engine:

* :func:`search_response` — the library assembly over one reader:
  rank the query (full ``query_string`` syntax or a plain analyzed
  term query), fetch stored fields for the k hits only
  (a positional ``IndexReader.fetch_docs`` read of only the row
  groups holding them — never a corpus read), and highlight the
  densest snippet per hit from the query's POSITIVE terms
  (``qstring.positive_terms`` — prohibited terms never light up).
  The CLI and in-process callers use it; it is the reference the
  served path is pinned to.
* the SERVED path is ``served.ShardedQueryService.search`` — one
  protocol for the REST server's in-process shard and for an actor
  fleet: phase 1 is the exact per-shard top-k merge, phase 2 routes
  each hit's fetch+highlight to the shard OWNING its doc range
  (OpenSearch's fetch phase) — document bodies never leave their
  shard; only k assembled rows travel.

Both paths fetch through ONE kernel, :func:`fetch_rows`, whose
snippets normalize tokens through the reader's memoized
``IndexReader.analyzer``.

Output schema: ``rank (int64), doc_id (int64), score (float64),
*fields, snippet (string, when highlighting)``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import highlight

__all__ = ["search_response"]


def fetch_rows(
    reader,
    doc_ids: list[int],
    fields: tuple[str, ...],
    highlight_field: str | None,
    terms: set[str] | None,
    width: int,
    pre: str = "<em>",
    post: str = "</em>",
) -> pa.Table:
    """The fetch-phase kernel over ONE reader: ``doc_id`` (int64) +
    stored ``fields`` (+ ``snippet``: the densest highlighted
    ``width``-char window of ``highlight_field`` over the
    analyzer-space ``terms``) for ``doc_ids``, in ``fetch_docs`` row
    order.  Snippets normalize through ``reader.analyzer``, whose memo
    outlives the request.  Shared by :func:`assemble_hits` and the
    served shards' ``fetch_partial``; an empty ``doc_ids`` still reads
    zero rows, so the columns keep the STORE's types."""
    need = list(dict.fromkeys([*fields, *([highlight_field] if highlight_field else [])]))
    t = reader.fetch_docs(doc_ids, ["doc_id"] + [c for c in need if c != "doc_id"])
    cols = {"doc_id": t["doc_id"].cast(pa.int64())}
    for f in fields:
        cols[f] = t[f].combine_chunks()
    if highlight_field is not None:
        snippet = highlight.best_snippet  # looked up per call (tracing wraps it)
        terms = terms or set()
        cols["snippet"] = pa.array(
            [
                snippet(x or "", "", reader.analyzer, width=width,
                        pre=pre, post=post, terms=terms)
                for x in t[highlight_field].to_pylist()
            ],
            pa.string(),
        )
    return pa.table(cols)


def assemble_hits(
    reader,
    hits: list[tuple[int, float]],
    fields: tuple[str, ...],
    snippet_terms: set[str] | None,
    highlight_field: str | None,
    width: int,
    rank_start: int = 1,
    hl_pre: str = "<em>",
    hl_post: str = "</em>",
) -> pa.Table:
    """hits + stored fields (+ snippet) → the response table, in rank
    order.  Shared by :func:`search_response` and the hybrid query.
    ``rank_start``: first row's rank (``from_ + 1`` on offset pages)."""
    fetched = fetch_rows(
        reader, [d for d, _ in hits], fields, highlight_field,
        snippet_terms, width, hl_pre, hl_post,
    )
    row_of = {int(i): r for r, i in enumerate(fetched["doc_id"].to_pylist())}
    fetched = fetched.take(pa.array([row_of[int(d)] for d, _ in hits], pa.int64()))
    cols: dict[str, pa.Array] = {
        "rank": pa.array(
            np.arange(rank_start, rank_start + len(hits), dtype=np.int64)
        ),
        "doc_id": pa.array([int(d) for d, _ in hits], pa.int64()),
        "score": pa.array([float(s) for _, s in hits], pa.float64()),
    }
    for f in [*fields, *(["snippet"] if highlight_field is not None else [])]:
        cols[f] = fetched[f].combine_chunks()
    return pa.table(cols)


def search_response(
    reader,
    query: str,
    k: int = 10,
    fields: tuple[str, ...] = ("url", "title"),
    highlight_field: str | None = None,
    width: int = 160,
    default_operator: str = "or",
    syntax: bool = True,
    from_: int = 0,
    after: tuple[float, int] | None = None,
    sort: tuple[str, str] | None = None,
    hl_tags: tuple[str, str] = ("<em>", "</em>"),
    with_total: bool = False,
) -> pa.Table:
    """The assembled ``_search`` response over a local reader.

    ``with_total=True`` returns ``(table, total)`` where ``total`` is
    the TRUE live match count from the SAME evaluation (sort path: the
    size of the one match set it sorts; syntax path: one dense eval serves both
    — a separate count call would re-evaluate the query; match-any
    path: ``facets.match_doc_ids``, the /_count semantics).

    ``sort=(column, "asc"|"desc")`` ranks the query's MATCH SET by a
    stored field instead of BM25 (``query/sortq.py`` — OpenSearch's
    ``sort`` clause): hits score 0.0, the ordering key rides in an
    extra ``sort_key`` column, and ``after`` becomes a ``(key,
    doc_id)`` cursor in the field order.

    ``syntax=True`` parses ``query`` as the ``query_string`` language
    (``query/qstring.py``); ``syntax=False`` treats it as plain text —
    analyzed terms through ``bm25.score_topk``, the engine's standard
    ``match`` query (exactly the ranking the sharded tier merges, so
    ``ShardedQueryService.search`` pins identical to this mode).

    Pagination (OpenSearch semantics, mutually exclusive): ``from_``
    is offset paging (rank ``from_ + k``, slice — cost grows with the
    offset); ``after`` is the stateless ``search_after`` ``(score,
    doc_id)`` cursor — constant cost per page, rank restarts at 1
    (the global offset is unknown by design)."""
    if from_ and after is not None:
        raise ValueError("from_ and after are mutually exclusive "
                         "(OpenSearch search_after requires from=0)")
    from .qstring import parse_query_string, positive_terms, query_string_topk

    analyzer = reader.analyzer
    if sort is not None:
        from .served import live_matches
        from .sortq import live_mask, sort_rows_range

        col, order = sort
        _, matched = live_matches(
            reader, query, syntax, default_operator, live_mask(reader)
        )
        rows = sort_rows_range(
            reader, matched, col,
            desc=(order == "desc"), n=from_ + k, after=after,
        ).slice(from_)
        hits = [(int(d), 0.0) for d in rows["doc_id"].to_pylist()]
        terms = (
            positive_terms(parse_query_string(query, analyzer, default_operator))
            if highlight_field and syntax
            else set(analyzer(query))
            if highlight_field
            else None
        )
        out = assemble_hits(
            reader, hits, tuple(fields), terms, highlight_field,
            width, rank_start=from_ + 1,
            hl_pre=hl_tags[0], hl_post=hl_tags[1],
        )
        out = out.append_column("sort_key", rows["key"].combine_chunks())
        return (out, len(matched)) if with_total else out
    total = None
    if syntax:
        if with_total:
            from .qstring import query_string_topk_with_total

            hits, total = query_string_topk_with_total(
                reader, query, k=from_ + k,
                default_operator=default_operator,
                analyzer=analyzer, after=after,
            )
            hits = hits[from_:]
        else:
            hits = query_string_topk(
                reader,
                query,
                k=from_ + k,
                default_operator=default_operator,
                analyzer=analyzer,
                after=after,
            )[from_:]
        # the parse for positive_terms only feeds snippets — skip the
        # second lex+parse entirely when not highlighting
        terms = (
            positive_terms(parse_query_string(query, analyzer, default_operator))
            if highlight_field
            else None
        )
    else:
        from .bm25 import score_topk, topk_after

        terms_list = analyzer(query)
        if after is not None:
            hits = topk_after(reader, terms_list, after, k=k)
        else:
            hits = score_topk(reader, terms_list, k=from_ + k)[from_:]
        terms = set(terms_list)
        if with_total:
            from .facets import match_doc_ids

            total = int(len(match_doc_ids(reader, terms_list)))
    out = assemble_hits(
        reader,
        hits,
        tuple(fields),
        terms if highlight_field else None,
        highlight_field,
        width,
        rank_start=from_ + 1,
        hl_pre=hl_tags[0],
        hl_post=hl_tags[1],
    )
    return (out, total) if with_total else out
